// Package embed defines the embedding abstraction of Definition 1 in
// Ma & Tao: an injection of the nodes of a guest graph G into the nodes
// of a host graph H of the same size, together with its dilation cost
// (the maximum host distance between the images of adjacent guest nodes).
// It also provides the composition, identity and coordinate-permutation
// embeddings the paper uses as glue between construction steps.
//
// Every embedding is its kernel, the index-native form: a batch
// evaluator over row-major ranks (see kernel.go). Map, the per-node
// form small consumers use, decodes and re-encodes one rank through it.
// The paper's constructions are per-dimension maps, each guest
// coordinate fixing its own block of host digits, so each writes its
// digit kernel directly: NewRows takes the host-rank share of every
// (axis, value) and stores the rows. NewIndexed and NewKernel take a
// rank map or any other kernel. Compositions of digit kernels compile
// into one digit kernel when each stage but the last is disjoint, and a
// digit kernel's closed forms (digits.go) measure its dilation from its
// axis images and prove its injectivity from its components, the groups
// of guest axes that move disjoint host digits. Kernels of guests at or
// below MaterializeThreshold() are materialized into lookup tables on
// first use, and composing materialized steps fuses their tables.
//
// The package owns the choice of measurement route. Verify and
// EdgeDilation (whose halves are Dilation and AverageDilation) answer
// from a digit kernel's closed form when one applies. Otherwise Verify
// scans a table sequentially and any other kernel in parallel, and
// EdgeDilation drives the kernel, a table included, over blocked edge
// enumeration striped across GOMAXPROCS workers. The engines measure
// through these methods and pick no route themselves.
package embed

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

// Embedding is an injection from the nodes of From to the nodes of To,
// held as its kernel. Every method is safe for concurrent calls.
type Embedding struct {
	From, To grid.Spec
	// Strategy names the construction that produced the embedding, e.g.
	// "f_L", "expansion/H_V", "square-chain".
	Strategy string
	// Predicted is the dilation cost guaranteed by the paper's theorem
	// for this construction, or 0 if no guarantee is recorded.
	Predicted int
	kernel    Kernel

	matOnce  sync.Once
	matDone  atomic.Bool
	matTable Table
}

// NewKernel builds an embedding from its kernel. The sizes of the two
// specs must agree (the paper studies same-size embeddings only).
func NewKernel(from, to grid.Spec, strategy string, predicted int, k Kernel) (*Embedding, error) {
	if err := from.Shape.Validate(); err != nil {
		return nil, fmt.Errorf("embed: guest: %v", err)
	}
	if err := to.Shape.Validate(); err != nil {
		return nil, fmt.Errorf("embed: host: %v", err)
	}
	if from.Size() != to.Size() {
		return nil, fmt.Errorf("embed: guest %s has %d nodes but host %s has %d; sizes must match",
			from, from.Size(), to, to.Size())
	}
	return &Embedding{From: from, To: to, Strategy: strategy, Predicted: predicted, kernel: k}, nil
}

// NewIndexed builds an embedding directly from a rank-to-rank map,
// which must be safe for concurrent calls.
func NewIndexed(from, to grid.Spec, strategy string, predicted int, fn func(int) int) (*Embedding, error) {
	return NewKernel(from, to, strategy, predicted, IndexFunc(fn))
}

// Map returns the image of guest node n in the host: the host node of
// the kernel's image of n's guest rank. n must be a guest node (every
// coordinate within From's shape); it is neither retained nor mutated.
// Map reads a table the embedding already materialized and otherwise
// evaluates the kernel on the one rank, materializing nothing.
func (e *Embedding) Map(n grid.Node) grid.Node {
	var dst, src [1]int
	src[0] = e.From.Shape.Index(n)
	e.cachedKernel().EvalBatch(dst[:], src[:])
	return e.To.Shape.NodeAt(dst[0])
}

// cachedKernel returns the materialized table when one already exists,
// otherwise the raw (unmaterialized) kernel. Unlike Kernel it never
// triggers materialization, so one-off lookups stay cheap.
func (e *Embedding) cachedKernel() Kernel {
	if e.matDone.Load() {
		return e.matTable
	}
	return e.kernel
}

// Digits returns the embedding's digit kernel, whose closed forms
// (DigitKernel.EdgeDilation, Bijective) measure the embedding from its
// axis images, or nil when the kernel is not one: a table, a chain of
// stages that do not collapse, or a rank map.
func (e *Embedding) Digits() *DigitKernel {
	k, ok := e.kernel.(*DigitKernel)
	if !ok || !k.host.Equal(e.To.Shape) || !e.From.Shape.Equal(k.lengths) {
		return nil
	}
	return k
}

// Table materializes the embedding as a slice indexed by guest row-major
// index holding host row-major indices. The fill runs in parallel
// blocks; the returned slice is a fresh copy the caller may mutate.
func (e *Embedding) Table() []int {
	if t, ok := e.cachedKernel().(Table); ok {
		return append([]int(nil), t...)
	}
	if e.From.Size() <= MaterializeThreshold() {
		if t, ok := e.Kernel().(Table); ok {
			return append([]int(nil), t...)
		}
	}
	// cachedKernel is not a Table here, so Materialize builds a fresh
	// slice rather than returning an internal one.
	return Materialize(e.cachedKernel(), e.From.Size())
}

// EdgeDilation measures the dilation (the maximum host distance, under
// rd, between the images of adjacent guest nodes) and the average
// dilation (the mean of the same distances) together. A carry-free
// digit kernel answers in closed form from its Σ l_i axis images
// (DigitKernel.EdgeDilation), with no table. Any other kernel, a
// materialized table included, rewrites the guest's edge blocks in
// place into host ranks in one fused pass striped across workers
// (grid.Spec.EdgeDilationEval; a guest of one grain runs inline).
//
// Both routes sum integer distances, so they agree bit for bit. rd
// must measure the embedding's host; a materialized rd also needs every
// image in range, which Verify establishes.
func (e *Embedding) EdgeDilation(rd *grid.RankDistancer) (dil int, avg float64) {
	if k := e.Digits(); k != nil {
		if dil, avg, ok := k.EdgeDilation(e.From, rd); ok {
			return dil, avg
		}
	}
	k := e.Kernel()
	return e.From.EdgeDilationEval(func(blk []int) { k.EvalBatch(blk, blk) }, rd)
}

// Dilation returns the exact dilation cost, the first half of
// EdgeDilation.
func (e *Embedding) Dilation() int {
	dil, _ := e.EdgeDilation(e.To.NewRankDistancer())
	return dil
}

// DilationPerNode is the reference per-node implementation of Dilation:
// a sequential walk of every guest edge through Map. Map evaluates the
// same kernel one rank at a time, so the walk checks the batch routes
// (the closed form and the striped edge pass over blocks of ranks)
// against a per-edge walk of that kernel; whether the kernel is the
// paper's map is checked elsewhere, against the per-node closures of
// the constructions' tests. Kept for that parity, for benchmarking
// against the batch routes, and for tiny shapes where spinning up
// workers is not worth it.
func (e *Embedding) DilationPerNode() int {
	max := 0
	e.From.VisitEdges(func(a, b grid.Node) {
		// Map neither mutates nor retains its argument, so the reused
		// VisitEdges buffers are passed directly.
		if d := e.To.Distance(e.Map(a), e.Map(b)); d > max {
			max = d
		}
	})
	return max
}

// AverageDilation returns the mean host distance over all guest edges, a
// secondary proximity measure used in the experiment reports: the
// second half of EdgeDilation.
func (e *Embedding) AverageDilation() float64 {
	_, avg := e.EdgeDilation(e.To.NewRankDistancer())
	return avg
}

// AverageDilationPerNode is the reference per-node implementation of
// AverageDilation, kept alongside DilationPerNode: a per-edge walk of
// the same kernel through Map.
func (e *Embedding) AverageDilationPerNode() float64 {
	sum, count := 0, 0
	e.From.VisitEdges(func(a, b grid.Node) {
		sum += e.To.Distance(e.Map(a), e.Map(b))
		count++
	})
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// Verify checks that the embedding is a well-formed injection: every
// image is in bounds and no two guest nodes share an image. Since guest
// and host have equal size, injectivity implies bijectivity. It takes
// the first route that applies: a digit kernel the closed form proves
// bijective (DigitKernel.Bijective) needs no scan; a table is scanned
// once, sequentially (Table.CheckInjection); any other kernel is
// scanned in parallel blocks evaluated in place. Every route reports
// the violation CheckInjection finds first in guest-rank order, so the
// error does not depend on the route or on scheduling.
func (e *Embedding) Verify() error {
	if k := e.Digits(); k != nil && k.Bijective() {
		return nil
	}
	n := e.From.Size()
	var bad *InjectionViolation
	switch k := e.Kernel().(type) {
	case Table:
		bad = k.CheckInjection(n)
	default:
		bad = checkKernelInjection(k, n)
	}
	if bad == nil {
		return nil
	}
	if bad.OutOfBounds {
		return fmt.Errorf("embed: %s: image of node %s (host rank %d) out of bounds for host %s",
			e.Strategy, e.From.Shape.NodeAt(bad.GuestRank), bad.HostRank, e.To)
	}
	return fmt.Errorf("embed: %s: host node %s has two pre-images (one is %s)",
		e.Strategy, e.To.Shape.NodeAt(bad.HostRank), e.From.Shape.NodeAt(bad.GuestRank))
}

// CheckPredicted verifies that the measured dilation does not exceed the
// recorded guarantee. It returns the measured dilation (Dilation).
func (e *Embedding) CheckPredicted() (int, error) {
	d := e.Dilation()
	if e.Predicted > 0 && d > e.Predicted {
		return d, fmt.Errorf("embed: %s: measured dilation %d exceeds guaranteed %d for %s -> %s",
			e.Strategy, d, e.Predicted, e.From, e.To)
	}
	return d, nil
}

// Compose chains two embeddings: first maps G into an intermediate graph,
// second maps that graph into the final host. The intermediate specs must
// match exactly. Dilation costs multiply (each unit step in G spreads to
// at most first.Predicted steps in the middle graph, each of which
// spreads to at most second.Predicted steps in the host), so the
// composite guarantee is the product when both parts carry one. Kernels
// compose too: already-materialized steps fuse into a single table. Two
// digit kernels compile into one digit kernel when the first is
// disjoint over the intermediate (each intermediate digit moves with at
// most one guest axis): the new contributions are the second kernel
// evaluated at the first's axis images, so a whole construction
// pipeline evaluates as one sum per rank. Anything else chains stage by
// stage until first materialization. Map follows from the composed
// kernel like every other embedding's.
func Compose(first, second *Embedding) (*Embedding, error) {
	if first.To.Kind != second.From.Kind || !first.To.Shape.Equal(second.From.Shape) {
		return nil, fmt.Errorf("embed: cannot compose %s -> %s with %s -> %s: intermediate specs differ",
			first.From, first.To, second.From, second.To)
	}
	pred := 0
	if first.Predicted > 0 && second.Predicted > 0 {
		pred = first.Predicted * second.Predicted
	}
	strategy := first.Strategy + " ∘ " + second.Strategy
	return NewKernel(first.From, second.To, strategy, pred, composeKernels(first.cachedKernel(), second.cachedKernel()))
}

// ComposeAll chains a pipeline of embeddings left to right.
func ComposeAll(steps ...*Embedding) (*Embedding, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("embed: empty composition")
	}
	acc := steps[0]
	for _, next := range steps[1:] {
		var err error
		acc, err = Compose(acc, next)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Identity returns the identity embedding between two graphs of the same
// shape. Embedding a mesh in the same-shape torus (or any graph in one of
// the identical kind) has unit dilation (Lemma 36's easy direction).
func Identity(from, to grid.Spec) (*Embedding, error) {
	if !from.Shape.Equal(to.Shape) {
		return nil, fmt.Errorf("embed: identity requires equal shapes, got %s and %s", from.Shape, to.Shape)
	}
	return NewKernel(from, to, "identity", 1, identityKernel{})
}

// Permute returns the coordinate-permutation embedding of G into the
// graph of the same kind whose shape is Apply(p, G.Shape). It is a graph
// isomorphism, hence has unit dilation; the paper uses it as the π, α, τ
// and β glue steps of Sections 4 and 5. Host axis j carries guest axis
// p[j], so the share of value v on guest axis i is v times the weight
// of the host axis that carries it.
func Permute(from grid.Spec, p perm.Perm, toKind grid.Kind) (*Embedding, error) {
	if len(p) != from.Dim() {
		return nil, fmt.Errorf("embed: permutation length %d does not match dimension %d", len(p), from.Dim())
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	toShape := grid.Shape(perm.Apply(p, from.Shape))
	to, err := grid.NewSpec(toKind, toShape)
	if err != nil {
		return nil, err
	}
	return NewRows(from, to, "permute", 1, func(i, v int) int {
		w := 1
		for j := len(p) - 1; p[j] != i; j-- {
			w *= toShape[j]
		}
		return v * w
	})
}

// Rotate returns the coordinate-rotation embedding of sp into itself:
// node (x1,...,xd) maps to ((x1+r1) mod l1, ..., (xd+rd) mod ld).
// Offsets are normalized modulo the dimension lengths. On a torus every
// rotation is a graph automorphism (unit dilation, and — because
// dimension-ordered routing commutes with rotation — congestion-neutral
// too). On a mesh a nonzero rotation is merely a node bijection: it
// tears the rotated dimension at the boundary, so no dilation guarantee
// is recorded and the caller must measure. The placement search uses
// mesh rotations as genuine new candidates and skips torus rotations as
// metric-invariant.
func Rotate(sp grid.Spec, offsets []int) (*Embedding, error) {
	if len(offsets) != sp.Dim() {
		return nil, fmt.Errorf("embed: rotation of %d offsets does not match dimension %d", len(offsets), sp.Dim())
	}
	norm := func(j int) int {
		l := sp.Shape[j]
		return ((offsets[j] % l) + l) % l
	}
	zero := true
	strategy := append(make([]byte, 0, 8+4*len(offsets)), "rotate("...)
	for j := range offsets {
		if j > 0 {
			strategy = append(strategy, ',')
		}
		strategy = strconv.AppendInt(strategy, int64(norm(j)), 10)
		zero = zero && norm(j) == 0
	}
	strategy = append(strategy, ')')
	predicted := 0
	if zero || sp.Kind == grid.Torus {
		predicted = 1
	}
	return NewRows(sp, sp, string(strategy), predicted, func(i, v int) int {
		return (v + norm(i)) % sp.Shape[i] * sp.Shape.Weight(i)
	})
}

// FromTable builds an embedding from an explicit guest-index to
// host-index table. The table is the kernel.
func FromTable(from, to grid.Spec, strategy string, predicted int, table []int) (*Embedding, error) {
	if len(table) != from.Size() {
		return nil, fmt.Errorf("embed: table has %d entries, want %d", len(table), from.Size())
	}
	t := append(Table(nil), table...)
	return NewKernel(from, to, strategy, predicted, t)
}
