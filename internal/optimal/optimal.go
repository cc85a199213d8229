// Package optimal provides ground truth for the paper's optimality
// claims: an exact branch-and-bound minimum-dilation search for tiny
// instances, and two computable lower bounds — a degree bound and the
// ball-counting bound behind Theorem 47 (Rosenberg's argument via
// Lemmas 44 and 45).
package optimal

import (
	"fmt"

	"torusmesh/internal/grid"
)

// MinDilation computes the exact minimum dilation cost over all
// embeddings of g in h by branch-and-bound. maxNodes guards against
// accidental use on large instances (the search is factorial).
func MinDilation(g, h grid.Spec, maxNodes int) (int, error) {
	d, _, err := MinDilationWitness(g, h, maxNodes)
	return d, err
}

// MinDilationWitness additionally returns an optimal assignment table
// (guest row-major index to host row-major index). Guest nodes are
// placed in breadth-first order, and a branch is pruned as soon as a
// placed edge reaches the current best.
func MinDilationWitness(g, h grid.Spec, maxNodes int) (int, []int, error) {
	n := g.Size()
	if n != h.Size() {
		return 0, nil, fmt.Errorf("optimal: sizes differ (%d vs %d)", n, h.Size())
	}
	if n > maxNodes {
		return 0, nil, fmt.Errorf("optimal: %d nodes exceeds limit %d for exhaustive search", n, maxNodes)
	}
	gg := grid.Build(g)
	hg := grid.Build(h)
	hdist := hg.AllPairs()

	// Order guest nodes by BFS from node 0 so each new node has at least
	// one already-placed neighbor, making pruning effective.
	order := bfsOrder(gg)
	pos := make([]int, n) // guest node -> index in order
	for i, v := range order {
		pos[v] = i
	}

	assign := make([]int, n) // guest node -> host node
	usedHost := make([]bool, n)
	for i := range assign {
		assign[i] = -1
	}

	best := upperBound(gg, hdist)
	var witness []int
	var dfs func(step, cur int) // cur = max dilation among placed edges
	dfs = func(step, cur int) {
		if cur >= best {
			return
		}
		if step == n {
			best = cur
			witness = append([]int(nil), assign...)
			return
		}
		v := order[step]
		for hNode := 0; hNode < n; hNode++ {
			if usedHost[hNode] {
				continue
			}
			// Symmetry break: the first node goes to host node 0 only.
			// Toruses are vertex-transitive and meshes have at least the
			// corner in node 0's orbit; restricting the first placement
			// never changes the optimum because any embedding can be
			// recentered... only valid for vertex-transitive hosts, so we
			// apply it only to toruses.
			if step == 0 && h.Kind == grid.Torus && hNode != 0 {
				break
			}
			worst := cur
			feasible := true
			for _, w := range gg.Adj[v] {
				if assign[w] < 0 {
					continue
				}
				if d := hdist[hNode][assign[w]]; d > worst {
					worst = d
					if worst >= best {
						feasible = false
						break
					}
				}
			}
			if !feasible {
				continue
			}
			assign[v] = hNode
			usedHost[hNode] = true
			dfs(step+1, worst)
			usedHost[hNode] = false
			assign[v] = -1
		}
	}
	dfs(0, 0)
	return best, witness, nil
}

// upperBound seeds branch-and-bound with the identity-by-index embedding.
func upperBound(gg *grid.Graph, hdist [][]int) int {
	max := 0
	for v, adj := range gg.Adj {
		for _, w := range adj {
			if d := hdist[v][w]; d > max {
				max = d
			}
		}
	}
	return max + 1 // bound is exclusive in the search
}

func bfsOrder(g *grid.Graph) []int {
	n := g.Size()
	order := make([]int, 0, n)
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// BallSize returns the maximum number of nodes of the graph within
// distance k of any single node. For meshes the maximum is attained at a
// central node; for toruses every node has the same ball. Computed by a
// per-dimension convolution over the distance budget.
func BallSize(sp grid.Spec, k int) int {
	// counts[t] = number of coordinate tuples at total distance exactly t.
	counts := make([]int64, k+1)
	counts[0] = 1
	for _, l := range sp.Shape {
		next := make([]int64, k+1)
		for t := 0; t <= k; t++ {
			if counts[t] == 0 {
				continue
			}
			for step := 0; t+step <= k; step++ {
				ways := int64(waysAtDistance(sp.Kind, l, step))
				if ways == 0 {
					continue
				}
				next[t+step] += counts[t] * ways
			}
		}
		counts = next
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total > int64(sp.Size()) {
		return sp.Size()
	}
	return int(total)
}

// waysAtDistance counts coordinates of one dimension at exactly the given
// distance from the best-centered coordinate.
func waysAtDistance(kind grid.Kind, l, dist int) int {
	if dist == 0 {
		return 1
	}
	if kind == grid.Torus {
		// Around any point: two coordinates at each distance up to
		// floor((l-1)/2); if l is even there is exactly one antipode at
		// distance l/2.
		if 2*dist < l {
			return 2
		}
		if 2*dist == l {
			return 1
		}
		return 0
	}
	// Mesh: center at position c = (l-1)/2 (floor). Coordinates at
	// distance dist are c-dist and c+dist when in range.
	c := (l - 1) / 2
	ways := 0
	if c-dist >= 0 {
		ways++
	}
	if c+dist <= l-1 {
		ways++
	}
	return ways
}

// LowerBoundBall computes the Lemma 45 lower bound on the dilation of
// any embedding of g in h: if an embedding with dilation ρ exists, then
// for every k the k-ball of g fits inside a host ball of radius kρ, so
// ball_g(k) <= ball_h(kρ). The bound is the largest ρ forced over
// k = 1..diameter(g).
func LowerBoundBall(g, h grid.Spec) int {
	if g.Size() != h.Size() {
		return 0
	}
	diam := diameter(g)
	bound := 1
	for k := 1; k <= diam; k++ {
		need := BallSize(g, k)
		// Find the smallest rho with ball_h(k*rho) >= need.
		rho := bound
		for ballH(h, k*rho) < need {
			rho++
		}
		if rho > bound {
			bound = rho
		}
	}
	return bound
}

// ballH is BallSize with the host's maximum ball; for meshes the central
// ball dominates every other, which is exactly what Lemma 45 needs (the
// image of a guest ball lies in *some* host ball of radius kρ, and we
// compare against the largest).
func ballH(sp grid.Spec, k int) int { return BallSize(sp, k) }

func diameter(sp grid.Spec) int {
	d := 0
	for _, l := range sp.Shape {
		if sp.Kind == grid.Torus {
			d += l / 2
		} else {
			d += l - 1
		}
	}
	return d
}

// LowerBoundDegree returns the degree-based lower bound: a guest node of
// degree deg needs its deg neighbors inside a host ball of radius ρ
// around its image, so ball_h(ρ) must exceed deg.
func LowerBoundDegree(g, h grid.Spec) int {
	deg := g.MaxDegree()
	rho := 1
	for BallSize(h, rho)-1 < deg {
		rho++
	}
	return rho
}
