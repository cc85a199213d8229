// Package contract implements many-to-one simulations of toruses and
// meshes, the relaxation of embeddings the paper contrasts with
// Kosaraju & Atallah [KA88]: a simulation maps a constant number of
// guest nodes onto each host node (the load), and its dilation is the
// maximum host distance between images of adjacent guest nodes.
//
// The basic construction is block contraction: a guest of shape
// (b1·m1, ..., bd·md) contracts onto a host of shape (m1, ..., md) by
// integer-dividing each coordinate by its block length. Adjacent guest
// nodes land on equal or adjacent host nodes, so the dilation is 1 and
// the load is Π b_i — matching the KA88 observation that constant-load
// simulations between matching-dimension grids cost O(1) dilation.
// Composing a contraction with any embedding from this library extends
// the paper's same-size results to guests larger than the host.
package contract

import (
	"fmt"

	"torusmesh/internal/core"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
)

// Simulation is a many-to-one map from guest nodes to host nodes.
type Simulation struct {
	From, To grid.Spec
	// Load is the exact number of guest nodes per host node.
	Load int
	// Strategy names the construction.
	Strategy string
	// nodeMap must be a pure function safe for concurrent calls that
	// neither mutates nor retains its argument — the same contract as
	// embed.Embedding.Map, which Dilation's parallel pass relies on.
	nodeMap func(grid.Node) grid.Node
}

// Map returns the host image of a guest node.
func (s *Simulation) Map(n grid.Node) grid.Node { return s.nodeMap(n) }

// Dilation measures the maximum host distance between images of
// adjacent guest nodes (0 when every edge collapses into single nodes)
// in one striped pass over the guest's edge blocks
// (grid.Spec.EdgeDilationEval): each block of endpoint ranks decodes,
// maps and re-encodes in place into host ranks. Blocks run
// concurrently, so each call decodes into its own buffer.
func (s *Simulation) Dilation() int {
	d, _ := s.From.EdgeDilationEval(func(blk []int) {
		node := make(grid.Node, s.From.Dim())
		for i, x := range blk {
			s.From.Shape.NodeInto(node, x)
			blk[i] = s.To.Shape.Index(s.nodeMap(node))
		}
	}, s.To.NewRankDistancer())
	return d
}

// Verify checks that the map is onto the host with uniform load.
func (s *Simulation) Verify() error {
	counts := make([]int, s.To.Size())
	n := s.From.Size()
	for x := 0; x < n; x++ {
		img := s.nodeMap(s.From.Shape.NodeAt(x))
		if !img.InBounds(s.To.Shape) {
			return fmt.Errorf("contract: image %s out of bounds for %s", img, s.To)
		}
		counts[s.To.Shape.Index(img)]++
	}
	for i, c := range counts {
		if c != s.Load {
			return fmt.Errorf("contract: host node %s simulates %d guest nodes, want %d",
				s.To.Shape.NodeAt(i), c, s.Load)
		}
	}
	return nil
}

// Blocks returns the per-dimension block lengths b_i = l_i / m_i when
// the host shape divides the guest shape component-wise, or false.
func Blocks(guest, host grid.Shape) ([]int, bool) {
	if len(guest) != len(host) {
		return nil, false
	}
	blocks := make([]int, len(guest))
	for i := range guest {
		if guest[i]%host[i] != 0 {
			return nil, false
		}
		blocks[i] = guest[i] / host[i]
	}
	return blocks, true
}

// BlockContraction builds the dilation-1 block contraction of guest onto
// host. The shapes must have equal dimension with host dividing guest
// component-wise, and for a torus guest the host must also be a torus
// (collapsing wrap edges into a mesh would cost the full mesh span).
func BlockContraction(guest, host grid.Spec) (*Simulation, error) {
	blocks, ok := Blocks(guest.Shape, host.Shape)
	if !ok {
		return nil, fmt.Errorf("contract: %s does not divide %s component-wise", host.Shape, guest.Shape)
	}
	if guest.Kind == grid.Torus && host.Kind == grid.Mesh && !guest.IsHypercube() {
		return nil, fmt.Errorf("contract: torus guest onto mesh host breaks wrap edges; contract onto a torus and embed it instead")
	}
	load := 1
	for _, b := range blocks {
		load *= b
	}
	bs := append([]int(nil), blocks...)
	return &Simulation{
		From:     guest,
		To:       host,
		Load:     load,
		Strategy: "block-contraction",
		nodeMap: func(n grid.Node) grid.Node {
			out := make(grid.Node, len(n))
			for i, v := range n {
				out[i] = v / bs[i]
			}
			return out
		},
	}, nil
}

// Simulate builds a many-to-one simulation of guest on host for guests
// whose size is a multiple of the host's: it contracts the guest onto an
// intermediate graph of the guest's kind whose shape component-wise
// divides it and matches the host's size, then embeds that intermediate
// in the host with the paper's constructions. The resulting dilation is
// the embedding's dilation; the load is size(guest)/size(host).
func Simulate(guest, host grid.Spec) (*Simulation, error) {
	if guest.Size()%host.Size() != 0 {
		return nil, fmt.Errorf("contract: guest size %d is not a multiple of host size %d", guest.Size(), host.Size())
	}
	factor := guest.Size() / host.Size()
	if factor == 1 {
		e, err := core.Embed(guest, host)
		if err != nil {
			return nil, err
		}
		return fromEmbedding(e), nil
	}
	midShape, ok := shrinkShape(guest.Shape, factor)
	if !ok {
		return nil, fmt.Errorf("contract: cannot split a block factor of %d off shape %s", factor, guest.Shape)
	}
	midKind := guest.Kind
	mid := grid.Spec{Kind: midKind, Shape: midShape}
	con, err := BlockContraction(guest, mid)
	if err != nil {
		return nil, err
	}
	e, err := core.Embed(mid, host)
	if err != nil {
		return nil, fmt.Errorf("contract: intermediate %s does not embed in %s: %v", mid, host, err)
	}
	return &Simulation{
		From:     guest,
		To:       host,
		Load:     con.Load,
		Strategy: "block-contraction ∘ " + e.Strategy,
		nodeMap: func(n grid.Node) grid.Node {
			return e.Map(con.Map(n))
		},
	}, nil
}

// fromEmbedding wraps a one-to-one embedding as a load-1 simulation.
func fromEmbedding(e *embed.Embedding) *Simulation {
	return &Simulation{
		From:     e.From,
		To:       e.To,
		Load:     1,
		Strategy: e.Strategy,
		nodeMap:  e.Map,
	}
}

// shrinkShape divides factor out of the shape one prime at a time,
// always shrinking the currently largest divisible dimension, keeping
// every length at least 2. Returns false when factor does not divide out
// cleanly.
func shrinkShape(s grid.Shape, factor int) (grid.Shape, bool) {
	out := s.Clone()
	for _, p := range primeFactors(factor) {
		best := -1
		for i, l := range out {
			if l%p == 0 && l/p >= 2 && (best < 0 || l > out[best]) {
				best = i
			}
		}
		if best < 0 {
			return nil, false
		}
		out[best] /= p
	}
	return out, true
}

// primeFactors returns the prime factorization of n (with multiplicity),
// largest primes first.
func primeFactors(n int) []int {
	var out []int
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			out = append(out, p)
			n /= p
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
