package embed

// This file is the compiled, index-native half of the package: instead
// of evaluating an embedding one grid.Node at a time through closures,
// a Kernel maps blocks of guest row-major ranks to host ranks. The
// measurement paths (Dilation, AverageDilation, Verify) and the batch
// consumers (netsim placements, sweeps, codecs) run entirely on ranks,
// which removes the per-node coordinate allocations and lets the work
// stripe across GOMAXPROCS workers.
//
// Three compiled forms cover every construction in the paper:
//
//   - DigitKernel (digits.go): the closed form for every one of Ma &
//     Tao's constructions. Each guest coordinate independently
//     determines a fixed set of host digits, so the host rank is a sum
//     of per-coordinate contributions: host(x) = Σ_i contrib[i][digit_i(x)].
//     CompileSeparable builds the tables by probing the node map once
//     per (dimension, digit value) — Σ l_i probes in total — and a
//     composition of digit kernels compiles to one digit kernel
//     whenever each stage but the last is disjoint.
//   - Table: the fully materialized map. Any kernel over a guest of at
//     most MaterializeThreshold() nodes is materialized into a Table on
//     first use (a digit kernel by an odometer fill, without division),
//     and composing two materialized steps that do not collapse fuses
//     them into a single table instead of chaining evaluations.
//   - chainKernel: the fallback for stages that do not collapse (a
//     closure, a table or a non-disjoint digit kernel followed by
//     another stage); stages evaluate in place over the same block, and
//     a chain under the threshold is materialized on first use.

import (
	"fmt"
	"sync/atomic"

	"torusmesh/internal/grid"
	"torusmesh/internal/par"
)

// Kernel evaluates an embedding over row-major ranks in batches.
// Implementations must be safe for concurrent EvalBatch calls and must
// tolerate dst and src aliasing the same slice (every implementation
// reads src[i] before writing dst[i]). The package relies on it:
// Materialize, Dilation, AverageDilation and Verify evaluate every
// block in place, as EvalBatch(x, x), so they need no rank scratch.
type Kernel interface {
	// EvalBatch writes the host rank of guest rank src[i] into dst[i]
	// for every i. len(dst) must equal len(src).
	EvalBatch(dst, src []int)
}

// DefaultMaterializeThreshold is the default guest-size cutoff below
// which kernels are materialized into lookup tables on first use:
// 1<<22 ranks (a 32 MiB table on 64-bit).
const DefaultMaterializeThreshold = 1 << 22

var materializeThreshold atomic.Int64

func init() { materializeThreshold.Store(DefaultMaterializeThreshold) }

// MaterializeThreshold returns the current guest-size cutoff for
// automatic table materialization.
func MaterializeThreshold() int { return int(materializeThreshold.Load()) }

// SetMaterializeThreshold sets the guest-size cutoff for automatic
// table materialization. n <= 0 disables materialization. Embeddings
// that already materialized keep their tables.
func SetMaterializeThreshold(n int) { materializeThreshold.Store(int64(n)) }

// Table is a fully materialized kernel: Table[x] is the host rank of
// guest rank x.
type Table []int

// EvalBatch implements Kernel by lookup.
func (t Table) EvalBatch(dst, src []int) {
	for i, x := range src {
		dst[i] = t[x]
	}
}

// InjectionViolation describes the first way a table fails to be an
// injection into the host's rank range.
type InjectionViolation struct {
	// GuestRank is the offending pre-image, HostRank its image.
	GuestRank, HostRank int
	// OutOfBounds is true for a range violation; otherwise HostRank
	// has a second pre-image below GuestRank.
	OutOfBounds bool
}

// CheckInjection scans the table as a candidate injection into [0, n)
// and returns the first violation, or nil. The claimed host ranks go
// into a bitset allocated per call: n/8 bytes beside the table's 8n.
// The census fast path and the placement search's candidate gate share
// this one scan.
func (t Table) CheckInjection(n int) *InjectionViolation {
	seen := make([]uint32, (n+31)/32)
	for i, v := range t {
		if v < 0 || v >= n {
			return &InjectionViolation{GuestRank: i, HostRank: v, OutOfBounds: true}
		}
		w := &seen[v>>5]
		bit := uint32(1) << (v & 31)
		if *w&bit != 0 {
			return &InjectionViolation{GuestRank: i, HostRank: v}
		}
		*w |= bit
	}
	return nil
}

// IndexFunc adapts a pure rank-to-rank function to the Kernel
// interface. The function must be safe for concurrent calls.
type IndexFunc func(int) int

// EvalBatch implements Kernel.
func (f IndexFunc) EvalBatch(dst, src []int) {
	for i, x := range src {
		dst[i] = f(x)
	}
}

// identityKernel maps every rank to itself (identity embeddings and
// the row-major baseline).
type identityKernel struct{}

func (identityKernel) EvalBatch(dst, src []int) { copy(dst, src) }

// nodeMapKernel adapts a per-node closure to the batch interface: it
// decodes each rank into a reused coordinate buffer, applies the map,
// and re-encodes. Out-of-bounds images encode as rank -1 so Verify
// reports them as such rather than aliasing them onto valid hosts.
// This is the uncompiled fallback for embeddings built with New.
type nodeMapKernel struct {
	from, to grid.Spec
	fn       func(grid.Node) grid.Node
}

func (k nodeMapKernel) EvalBatch(dst, src []int) {
	scratch := make(grid.Node, k.from.Dim()) // one alloc per block, not per node
	shape := k.from.Shape
	for i, x := range src {
		shape.NodeInto(scratch, x)
		img := k.fn(scratch)
		if !img.InBounds(k.to.Shape) {
			dst[i] = -1
			continue
		}
		dst[i] = k.to.Shape.Index(img)
	}
}

// chainKernel evaluates a composition stage by stage over the same
// block. Stage 0 reads src; later stages rewrite dst in place, which
// every Kernel implementation supports. A stage fed the out-of-bounds
// sentinel (-1, produced by nodeMapKernel when a closure maps outside
// the host) must pass it through untouched so Verify can report it
// instead of a lookup panicking on a negative index.
type chainKernel struct{ steps []Kernel }

func (k chainKernel) EvalBatch(dst, src []int) {
	k.steps[0].EvalBatch(dst, src)
	for _, s := range k.steps[1:] {
		clean := true
		for _, v := range dst {
			if v < 0 {
				clean = false
				break
			}
		}
		if clean {
			s.EvalBatch(dst, dst)
			continue
		}
		// Rare (broken-embedding) path: evaluate element-wise, keeping
		// the sentinel.
		var one [1]int
		for i, v := range dst {
			if v < 0 {
				continue
			}
			one[0] = v
			s.EvalBatch(one[:], one[:])
			dst[i] = one[0]
		}
	}
}

// composeKernels chains two kernels: adjacent digit kernels that
// collapse become one digit kernel, identity stages drop out, adjacent
// materialized tables fuse into one, and anything else chains, with
// nested chains flattened.
func composeKernels(first, second Kernel) Kernel {
	if t1, ok := first.(Table); ok {
		if t2, ok := second.(Table); ok {
			return FuseTables(t1, t2)
		}
	}
	var steps []Kernel
	push := func(k Kernel) {
		if _, ok := k.(identityKernel); ok {
			return
		}
		if n := len(steps); n > 0 {
			if c := collapse(steps[n-1], k); c != nil {
				steps[n-1] = c
				return
			}
		}
		steps = append(steps, k)
	}
	for _, k := range []Kernel{first, second} {
		if c, ok := k.(chainKernel); ok {
			for _, s := range c.steps {
				push(s)
			}
		} else {
			push(k)
		}
	}
	switch len(steps) {
	case 0:
		return identityKernel{}
	case 1:
		return steps[0]
	}
	return chainKernel{steps: steps}
}

// FuseTables collapses two materialized steps into a single table:
// fused[x] = second[first[x]]. Out-of-bounds images in the first step —
// the -1 sentinel, or any rank outside the second table (a broken
// caller-injected construction) — pass through unchanged so Verify and
// CheckInjection can report them instead of a lookup panicking here.
func FuseTables(first, second Table) Table {
	fused := make(Table, len(first))
	par.Blocks(len(first), par.Grain(len(first), 4096), func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if v := first[x]; v >= 0 && v < len(second) {
				fused[x] = second[v]
			} else {
				fused[x] = v
			}
		}
	})
	return fused
}

// PostCompose returns the embedding followed by post, a pure
// relabeling of the host's ranks: the image of guest rank x becomes
// post(base(x)). post maps a graph of base's host shape onto the final
// host, which may differ from base's host in kind and axis labeling.
//
// This is the cheap half of candidate generation in the placement
// search: a base construction is built once, and each host symmetry —
// an axis permutation back from the permuted host, a coordinate
// rotation — is applied to it instead of re-running the construction.
// When both kernels are digit kernels and the base is disjoint, the
// two compile into one digit kernel and nothing is materialized;
// otherwise the base and post are materialized (each once, cached in
// its embedding) and fused into a single table, or chained above the
// threshold. post is not required to be distance-preserving (mesh
// rotations are not), so no dilation guarantee is carried over;
// predicted records the caller's bound, or 0 to force measurement.
func PostCompose(base, post *Embedding, strategy string, predicted int) (*Embedding, error) {
	if !post.From.Shape.Equal(base.To.Shape) {
		return nil, fmt.Errorf("embed: post-compose relabeling of %s does not apply to host %s", post.From, base.To)
	}
	if c := collapse(base.kernel, post.kernel); c != nil {
		return NewKernel(base.From, post.To, strategy, predicted, c)
	}
	return NewKernel(base.From, post.To, strategy, predicted, composeKernels(base.Kernel(), post.Kernel()))
}

// Materialize evaluates k over [0, n) in parallel blocks and returns
// the resulting table, the only allocation. A digit kernel fills each
// block by odometer (DigitKernel.fill): it decodes the block's first
// rank and then adds one contribution difference per carried digit,
// with no division. Any other kernel gets each block filled with its
// own guest ranks and evaluated in place. When k is already a Table it
// is returned as is (not copied); callers handing the result to user
// code must copy.
func Materialize(k Kernel, n int) Table {
	if t, ok := k.(Table); ok {
		return t
	}
	tablesMaterialized.Inc()
	out := make(Table, n)
	d, digits := k.(*DigitKernel)
	par.Blocks(n, par.Grain(n, 4096), func(lo, hi int) {
		if digits {
			d.fill(out[lo:hi], lo)
			return
		}
		for blockLo := lo; blockLo < hi; blockLo += grid.DefaultEdgeBlock {
			blk := out[blockLo:min(blockLo+grid.DefaultEdgeBlock, hi)]
			for i := range blk {
				blk[i] = blockLo + i
			}
			k.EvalBatch(blk, blk)
		}
	})
	return out
}

// Kernel returns the compiled batch evaluator of the embedding. When
// the guest has at most MaterializeThreshold() nodes the kernel is
// materialized into a Table on first call and cached, so composed
// pipelines collapse to a single lookup per rank.
func (e *Embedding) Kernel() Kernel {
	n := e.From.Size()
	if n <= MaterializeThreshold() {
		e.matOnce.Do(func() {
			e.matTable = Materialize(e.kernel, n)
			e.matDone.Store(true)
		})
		return e.matTable
	}
	return e.kernel
}

// EvalBatch writes the host rank of guest rank src[i] into dst[i] for
// every i, using the compiled kernel.
func (e *Embedding) EvalBatch(dst, src []int) { e.Kernel().EvalBatch(dst, src) }

// NewIndexed builds an embedding directly from a rank-to-rank map. The
// node-level Map is derived from the kernel, so the public surface
// stays identical to closure-built embeddings.
func NewIndexed(from, to grid.Spec, strategy string, predicted int, fn func(int) int) (*Embedding, error) {
	return NewKernel(from, to, strategy, predicted, IndexFunc(fn))
}

// NewKernel builds an embedding from an explicit kernel, deriving the
// per-node Map adapter from it.
func NewKernel(from, to grid.Spec, strategy string, predicted int, k Kernel) (*Embedding, error) {
	e, err := New(from, to, strategy, predicted, nil)
	if err != nil {
		return nil, err
	}
	e.kernel = k
	e.mapFn = func(n grid.Node) grid.Node {
		var dst, src [1]int
		src[0] = from.Shape.Index(n)
		k.EvalBatch(dst[:], src[:])
		return to.Shape.NodeAt(dst[0])
	}
	return e, nil
}

// NewSeparable builds an embedding from a digit-separable node map
// (every construction of the paper is one: each guest coordinate
// independently determines a fixed set of host digits). The map is
// compiled into a DigitKernel by probing — see CompileSeparable — and
// kept as the per-node Map, so Map-vs-kernel parity is testable.
func NewSeparable(from, to grid.Spec, strategy string, predicted int, fn func(grid.Node) grid.Node) (*Embedding, error) {
	e, err := New(from, to, strategy, predicted, fn)
	if err != nil {
		return nil, err
	}
	e.kernel = CompileSeparable(from, to, fn)
	return e, nil
}

// WithSpecs returns an embedding with the same node map and kernel but
// re-labelled guest/host specs — used when a hypercube (simultaneously
// a torus and a mesh) was embedded under one interpretation and the
// caller wants the other. Shapes must match exactly; only kinds may
// differ.
func (e *Embedding) WithSpecs(from, to grid.Spec) (*Embedding, error) {
	if !from.Shape.Equal(e.From.Shape) || !to.Shape.Equal(e.To.Shape) {
		return nil, fmt.Errorf("embed: WithSpecs requires identical shapes, got %s -> %s for %s -> %s",
			from.Shape, to.Shape, e.From.Shape, e.To.Shape)
	}
	out, err := New(from, to, e.Strategy, e.Predicted, e.mapFn)
	if err != nil {
		return nil, err
	}
	out.kernel = e.cachedKernel() // reuse an already-materialized table
	return out, nil
}
