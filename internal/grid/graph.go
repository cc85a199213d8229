package grid

import "fmt"

// Graph is an explicit adjacency-list representation of a torus or mesh,
// used as ground truth for the closed-form distance expressions and by the
// exhaustive search modules. Nodes are identified by row-major index
// (Shape.Index).
type Graph struct {
	Spec Spec
	Adj  [][]int
}

// Build constructs the explicit graph for a spec. Intended for small
// graphs (verification, exhaustive search, simulation); the embedding
// algorithms themselves never materialize adjacency.
func Build(sp Spec) *Graph {
	n := sp.Size()
	g := &Graph{Spec: sp, Adj: make([][]int, n)}
	var buf []Node
	for x := 0; x < n; x++ {
		node := sp.Shape.NodeAt(x)
		buf = sp.Neighbors(node, buf[:0])
		adj := make([]int, 0, len(buf))
		for _, nb := range buf {
			adj = append(adj, sp.Shape.Index(nb))
		}
		g.Adj[x] = adj
	}
	return g
}

// Size returns the number of nodes.
func (g *Graph) Size() int { return len(g.Adj) }

// BFS returns the distance from src to every node (-1 if unreachable,
// which never happens for valid specs since toruses and meshes are
// connected).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, len(g.Adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, len(g.Adj))
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// AllPairs returns the full distance matrix by running BFS from every
// node. Quadratic in graph size; use only on small instances.
func (g *Graph) AllPairs() [][]int {
	d := make([][]int, g.Size())
	for i := range d {
		d[i] = g.BFS(i)
	}
	return d
}

// CheckDistances verifies that the closed-form distance of the spec
// matches BFS distance for every pair of nodes. Returns the first
// discrepancy found, or nil.
func (g *Graph) CheckDistances() error {
	n := g.Size()
	for i := 0; i < n; i++ {
		bfs := g.BFS(i)
		a := g.Spec.Shape.NodeAt(i)
		for j := 0; j < n; j++ {
			b := g.Spec.Shape.NodeAt(j)
			if got, want := g.Spec.Distance(a, b), bfs[j]; got != want {
				return fmt.Errorf("grid: %s distance(%s,%s) formula=%d bfs=%d", g.Spec, a, b, got, want)
			}
		}
	}
	return nil
}

// IsEdge reports whether x and y are adjacent.
func (g *Graph) IsEdge(x, y int) bool {
	for _, w := range g.Adj[x] {
		if w == y {
			return true
		}
	}
	return false
}
