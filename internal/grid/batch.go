package grid

import (
	"sync"

	"torusmesh/internal/par"
)

// This file is the index-native substrate of the batch embedding
// engine: row-major strides, a rank-level distance function, and a
// blocked edge iterator that enumerates the same edges as VisitEdges
// but delivers them as parallel slices of endpoint ranks, sliceable
// into disjoint node ranges for parallel measurement.

// DefaultEdgeBlock is the default number of edges per block handed to
// VisitEdgesBatch callbacks. Large enough to amortize the callback and
// keep kernels in their tight loops, small enough to stay cache-warm.
const DefaultEdgeBlock = 8192

// edgeBufs is a pooled pair of default-block-size endpoint buffers for
// VisitEdgesBatchRange.
type edgeBufs struct{ a, b []int }

var edgeBufPool = sync.Pool{New: func() any {
	return &edgeBufs{
		a: make([]int, DefaultEdgeBlock),
		b: make([]int, DefaultEdgeBlock),
	}
}}

// Strides returns the row-major weights of the shape: Strides()[j] is
// the rank delta of incrementing coordinate j, so
// Index(n) = Σ n[j]·Strides()[j]. (These are the radix weights w of
// Definition 7, without the leading w0 = n.)
func (s Shape) Strides() []int {
	d := len(s)
	w := make([]int, d)
	acc := 1
	for j := d - 1; j >= 0; j-- {
		w[j] = acc
		acc *= s[j]
	}
	return w
}

// NodeInto writes the row-major coordinates of rank x into dst, the
// allocation-free form of NodeAt for batch consumers. dst must have
// length Dim().
func (s Shape) NodeInto(dst Node, x int) {
	idxToNode(s, x, dst)
}

// DistanceRank returns the graph distance between the nodes with
// row-major ranks a and b without materializing coordinates — the
// rank-native form of Lemmas 5 and 6. One-off convenience form of
// RankDistancer; block consumers should compile a RankDistancer once.
func (sp Spec) DistanceRank(a, b int) int {
	return sp.NewRankDistancer().one(a, b)
}

// RankDistancer is a compiled block reducer over rank-pair distances:
// construction hoists the shape, kind, and — when every dimension
// length is a power of two (hypercubes and the Theorem 33 family) — the
// shift/mask digit decode out of the per-edge loop, replacing the
// serial division chain with independent shifts. Materialize trades
// O(dim·Size) memory for division-free decode on arbitrary radices.
type RankDistancer struct {
	shape Shape
	torus bool
	pow2  bool
	shift []uint    // shift[j]: trailing zero count of stride j
	mask  []int     // mask[j]: shape[j]-1
	dig   [][]int32 // dig[j][r]: digit j of rank r, when materialized
}

// NewRankDistancer compiles the distance reduction for the spec.
func (sp Spec) NewRankDistancer() *RankDistancer {
	rd := &RankDistancer{shape: sp.Shape, torus: sp.Kind == Torus, pow2: true}
	for _, l := range sp.Shape {
		if l&(l-1) != 0 {
			rd.pow2 = false
			break
		}
	}
	if rd.pow2 {
		d := sp.Dim()
		rd.shift = make([]uint, d)
		rd.mask = make([]int, d)
		var acc uint
		for j := d - 1; j >= 0; j-- {
			rd.shift[j] = acc
			rd.mask[j] = sp.Shape[j] - 1
			l := sp.Shape[j]
			for l > 1 {
				acc++
				l >>= 1
			}
		}
	}
	return rd
}

// Materialize precomputes the digit decode of every rank of the shape
// into per-dimension tables, so that non-power-of-two distances become
// table lookups instead of division chains. Worth it when the distancer
// will be driven over many more rank pairs than the shape has nodes —
// the census engine's regime. Power-of-two shapes already decode with
// shifts and are left untouched. Returns the receiver for chaining;
// afterwards both ranks of every query must lie in [0, Size()).
func (rd *RankDistancer) Materialize() *RankDistancer {
	if rd.pow2 || rd.dig != nil {
		return rd
	}
	d := len(rd.shape)
	n := rd.shape.Size()
	rd.dig = make([][]int32, d)
	for j := range rd.dig {
		rd.dig[j] = make([]int32, n)
	}
	coord := make(Node, d)
	for r := 0; r < n; r++ {
		for j := 0; j < d; j++ {
			rd.dig[j][r] = int32(coord[j])
		}
		for j := d - 1; j >= 0; j-- {
			coord[j]++
			if coord[j] < rd.shape[j] {
				break
			}
			coord[j] = 0
		}
	}
	return rd
}

// Distance returns the graph distance between the nodes with ranks a
// and b — the exported form of the compiled reduction, for consumers
// that gather their own rank pairs (e.g. many-to-one simulations).
func (rd *RankDistancer) Distance(a, b int) int { return rd.one(a, b) }

// one returns the distance between ranks a and b.
func (rd *RankDistancer) one(a, b int) int {
	dist := 0
	if rd.dig != nil {
		for j := len(rd.dig) - 1; j >= 0; j-- {
			dj := rd.dig[j]
			diff := int(dj[a]) - int(dj[b])
			if diff < 0 {
				diff = -diff
			}
			if rd.torus {
				if w := rd.shape[j] - diff; w < diff {
					diff = w
				}
			}
			dist += diff
		}
		return dist
	}
	if rd.pow2 {
		for j := len(rd.shape) - 1; j >= 0; j-- {
			mask := rd.mask[j]
			diff := (a>>rd.shift[j])&mask - (b>>rd.shift[j])&mask
			if diff < 0 {
				diff = -diff
			}
			if rd.torus {
				if w := mask + 1 - diff; w < diff {
					diff = w
				}
			}
			dist += diff
		}
		return dist
	}
	ua, ub := uint(a), uint(b)
	for j := len(rd.shape) - 1; j >= 0; j-- {
		l := uint(rd.shape[j])
		diff := int(ua%l) - int(ub%l)
		ua /= l
		ub /= l
		if diff < 0 {
			diff = -diff
		}
		if rd.torus {
			if w := int(l) - diff; w < diff {
				diff = w
			}
		}
		dist += diff
	}
	return dist
}

// MaxSum returns the maximum and the sum of the distances over a block
// of rank pairs in one pass — the inner reduction of every edge
// dilation pass, which decodes each pair once for both results.
func (rd *RankDistancer) MaxSum(ha, hb []int) (max int, sum int64) {
	for i := range ha {
		d := rd.one(ha[i], hb[i])
		if d > max {
			max = d
		}
		sum += int64(d)
	}
	return max, sum
}

// EdgeDilation returns the maximum and mean distance, under rd, between
// the relabeled endpoints table[a] and table[b] of every edge (a, b) of
// the graph — the fused single-pass measurement of a placement table's
// dilation and average dilation, and the serial reference that the
// striped passes and the digit kernels' closed forms are tested
// against. The relabeled ranks overwrite the edge
// visitor's own pooled blocks, so the pass needs no gather buffers of
// its own. Every table entry must be a valid rank for rd; callers
// validate the table first.
func (sp Spec) EdgeDilation(table []int, rd *RankDistancer) (max int, avg float64) {
	sum, edges := int64(0), int64(0)
	sp.VisitEdgesBatchRange(0, sp.Size(), DefaultEdgeBlock, func(a, b []int) {
		m, s := rd.MaxSum(relabel(a, table), relabel(b, table))
		if m > max {
			max = m
		}
		sum += s
		edges += int64(len(a))
	})
	if edges > 0 {
		avg = float64(sum) / float64(edges)
	}
	return max, avg
}

// EdgeDilationStriped is the parallel form of EdgeDilation: source-rank
// ranges stripe across the internal/par pool, each worker relabeling
// its own pooled edge blocks in place, and the per-range
// (max, sum, edges) triples merge commutatively — so the result is
// bit-identical to EdgeDilation regardless of worker count or
// scheduling. This is the re-validation pass of the annealing engine,
// where the table is large and the check sits on the serial path of the
// anneal loop.
func (sp Spec) EdgeDilationStriped(table []int, rd *RankDistancer) (max int, avg float64) {
	return sp.EdgeDilationEval(func(blk []int) { relabel(blk, table) }, rd)
}

// EdgeDilationEval is EdgeDilationStriped with the relabeling left to
// the caller: eval rewrites a block of guest ranks in place into their
// host ranks. It must be safe for concurrent calls on distinct blocks.
// This is the pass of an embedding whose kernel has no table.
func (sp Spec) EdgeDilationEval(eval func(blk []int), rd *RankDistancer) (max int, avg float64) {
	n := sp.Size()
	var mu sync.Mutex
	var sum, edges int64
	par.Blocks(n, par.Grain(n, 4096), func(lo, hi int) {
		lmax, lsum, ledges := 0, int64(0), int64(0)
		sp.VisitEdgesBatchRange(lo, hi, DefaultEdgeBlock, func(a, b []int) {
			eval(a)
			eval(b)
			m, s := rd.MaxSum(a, b)
			if m > lmax {
				lmax = m
			}
			lsum += s
			ledges += int64(len(a))
		})
		mu.Lock()
		if lmax > max {
			max = lmax
		}
		sum += lsum
		edges += ledges
		mu.Unlock()
	})
	if edges > 0 {
		avg = float64(sum) / float64(edges)
	}
	return max, avg
}

// relabel overwrites a block of guest ranks with their table images
// and returns it.
func relabel(blk, table []int) []int {
	for i, x := range blk {
		blk[i] = table[x]
	}
	return blk
}

// EdgeCountRange returns the number of edges VisitEdgesBatchRange
// enumerates for source ranks in [lo, hi).
func (sp Spec) EdgeCountRange(lo, hi int) int {
	count := 0
	sp.VisitEdgesBatchRange(lo, hi, DefaultEdgeBlock, func(a, b []int) {
		count += len(a)
	})
	return count
}

// VisitEdgesBatch enumerates every edge of the graph in blocks: fn is
// called with parallel slices a, b holding the row-major ranks of the
// endpoints of up to blockSize edges. The slices are reused between
// calls; copy them if retained. The edges and their order are exactly
// those of VisitEdges. blockSize <= 0 selects DefaultEdgeBlock.
func (sp Spec) VisitEdgesBatch(blockSize int, fn func(a, b []int)) {
	sp.VisitEdgesBatchRange(0, sp.Size(), blockSize, fn)
}

// VisitEdgesBatchRange enumerates the edges whose canonical source node
// (the lower endpoint in VisitEdges order) has rank in [lo, hi). The
// ranges {[r_i, r_{i+1})} of a partition of [0, Size()) enumerate every
// edge exactly once between them, which is what lets the measurement
// paths stripe edge blocks across workers without coordination. fn may
// overwrite a and b: the enumeration refills both blocks from its own
// odometer after every call, so the measurement passes rewrite
// endpoint ranks into host ranks where they lie.
func (sp Spec) VisitEdgesBatchRange(lo, hi, blockSize int, fn func(a, b []int)) {
	n := sp.Size()
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return
	}
	// Default-sized endpoint buffers come from a pool: callers like the
	// census engine enumerate the edges of thousands of graphs back to
	// back, and a fresh 2x64KiB allocation per graph is pure GC churn.
	var bufA, bufB []int
	if blockSize <= 0 {
		blockSize = DefaultEdgeBlock
	}
	if blockSize <= DefaultEdgeBlock {
		bufs := edgeBufPool.Get().(*edgeBufs)
		defer edgeBufPool.Put(bufs)
		bufA, bufB = bufs.a[:0], bufs.b[:0]
	} else {
		bufA = make([]int, 0, blockSize)
		bufB = make([]int, 0, blockSize)
	}
	d := sp.Dim()
	strides := sp.Shape.Strides()
	torus := sp.Kind == Torus
	// Odometer decode of lo once, then O(1) amortized increments.
	coord := make(Node, d)
	sp.Shape.NodeInto(coord, lo)
	for x := lo; x < hi; x++ {
		for j := 0; j < d; j++ {
			l := sp.Shape[j]
			c := coord[j]
			// Right neighbor covers every mesh edge once; for toruses
			// the wrap edge (l-1 -> 0) is also a "right" step, skipped
			// for l == 2 where it would duplicate the 0 -> 1 edge.
			if c+1 < l {
				bufA = append(bufA, x)
				bufB = append(bufB, x+strides[j])
			} else if torus && l > 2 {
				bufA = append(bufA, x)
				bufB = append(bufB, x-(l-1)*strides[j])
			}
			if len(bufA) >= blockSize {
				fn(bufA, bufB)
				bufA = bufA[:0]
				bufB = bufB[:0]
			}
		}
		// Advance the odometer to rank x+1.
		for j := d - 1; j >= 0; j-- {
			coord[j]++
			if coord[j] < sp.Shape[j] {
				break
			}
			coord[j] = 0
		}
	}
	if len(bufA) > 0 {
		fn(bufA, bufB)
	}
}
