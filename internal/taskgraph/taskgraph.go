// Package taskgraph generates the communication patterns that motivate
// the paper's embedding problem (Section 1): parallel tasks whose
// communication graphs are lines (pipelines), rings, meshes (stencils),
// toruses (periodic halo exchanges) and hypercubes. A task graph paired
// with a placement onto an interconnection network is the "matching task
// communication to network topology" problem the paper formalizes as
// graph embedding.
package taskgraph

import (
	"fmt"

	"torusmesh/internal/grid"
)

// Graph is an undirected communication graph over tasks 0..N-1.
type Graph struct {
	Name  string
	N     int
	Edges [][2]int
}

// FromSpec converts a torus or mesh spec into a task graph whose tasks
// are the nodes (row-major indexed) and whose edges are the graph edges.
func FromSpec(sp grid.Spec) *Graph {
	g := &Graph{Name: sp.String(), N: sp.Size()}
	sp.VisitEdges(func(a, b grid.Node) {
		g.Edges = append(g.Edges, [2]int{sp.Shape.Index(a), sp.Shape.Index(b)})
	})
	return g
}

// Pipeline returns a line-shaped task graph: stage i talks to stage i+1.
// This is the communication pattern of software pipelines and systolic
// chains.
func Pipeline(n int) *Graph {
	g := &Graph{Name: fmt.Sprintf("pipeline(%d)", n), N: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, [2]int{i, i + 1})
	}
	return g
}

// RingPipeline returns a ring-shaped task graph: a pipeline whose last
// stage feeds back to the first (token rings, round-robin reductions).
func RingPipeline(n int) *Graph {
	g := Pipeline(n)
	g.Name = fmt.Sprintf("ring-pipeline(%d)", n)
	if n > 2 {
		g.Edges = append(g.Edges, [2]int{n - 1, 0})
	}
	return g
}

// Stencil2D returns the 5-point stencil pattern on a rows x cols grid:
// the communication graph of Jacobi/Gauss-Seidel sweeps, image filters
// and PDE solvers the paper's introduction cites.
func Stencil2D(rows, cols int) *Graph {
	g := FromSpec(grid.MeshSpec(rows, cols))
	g.Name = fmt.Sprintf("stencil2d(%dx%d)", rows, cols)
	return g
}

// Stencil3D returns the 7-point stencil on an x0 x x1 x x2 grid.
func Stencil3D(x0, x1, x2 int) *Graph {
	g := FromSpec(grid.MeshSpec(x0, x1, x2))
	g.Name = fmt.Sprintf("stencil3d(%dx%dx%d)", x0, x1, x2)
	return g
}

// HaloExchange2D returns the periodic 5-point stencil (a torus): the
// pattern of spectral and periodic-boundary scientific codes.
func HaloExchange2D(rows, cols int) *Graph {
	g := FromSpec(grid.TorusSpec(rows, cols))
	g.Name = fmt.Sprintf("halo2d(%dx%d)", rows, cols)
	return g
}

// Hypercube returns the dimension-exchange pattern of size 2^d used by
// FFTs, bitonic sorts and allreduce butterflies.
func Hypercube(d int) *Graph {
	g := FromSpec(grid.MustSpec(grid.Torus, grid.Hypercube(d)))
	g.Name = fmt.Sprintf("hypercube(%d)", d)
	return g
}

// Validate checks the edge list is well-formed.
func (g *Graph) Validate() error {
	if g.N <= 0 {
		return fmt.Errorf("taskgraph: %s has no tasks", g.Name)
	}
	for _, e := range g.Edges {
		if e[0] < 0 || e[0] >= g.N || e[1] < 0 || e[1] >= g.N {
			return fmt.Errorf("taskgraph: %s has out-of-range edge %v", g.Name, e)
		}
		if e[0] == e[1] {
			return fmt.Errorf("taskgraph: %s has self-loop at %d", g.Name, e[0])
		}
	}
	return nil
}

// Incidence returns, for every task, the indices into Edges of the
// edges incident to it — the adjacency the incremental placement
// evaluator walks to find the O(degree) routes a node move touches.
// The lists are packed: task t's edges are edges[off[t]:off[t+1]], in
// Edges order, and an edge appears once under each endpoint. Two
// pointer-free arrays, whatever the graph's size.
func (g *Graph) Incidence() (off, edges []int32) {
	off = make([]int32, g.N+1)
	for _, e := range g.Edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for t := 1; t <= g.N; t++ {
		off[t] += off[t-1]
	}
	edges = make([]int32, off[g.N])
	for i, e := range g.Edges {
		a, b := e[0], e[1]
		edges[off[a]] = int32(i) // off[t] doubles as task t's cursor
		off[a]++
		edges[off[b]] = int32(i)
		off[b]++
	}
	// Each cursor stopped at its task's end, the next task's start.
	copy(off[1:], off[:g.N])
	off[0] = 0
	return off, edges
}

// MaxDegree returns the maximum task degree.
func (g *Graph) MaxDegree() int {
	deg := make([]int, g.N)
	max := 0
	for _, e := range g.Edges {
		deg[e[0]]++
		deg[e[1]]++
		if deg[e[0]] > max {
			max = deg[e[0]]
		}
		if deg[e[1]] > max {
			max = deg[e[1]]
		}
	}
	return max
}
