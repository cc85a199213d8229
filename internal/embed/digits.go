package embed

// This file is the digit-kernel compiler: the closed form every one of
// Ma & Tao's constructions compiles to, the collapse that turns a
// composition of such kernels back into one kernel, the odometer fill
// that materializes a kernel without division, and the closed forms
// that measure a kernel's dilation and prove its injectivity from its
// Σ l_i axis images instead of from all of its guest edges.

import (
	"slices"
	"sync"

	"torusmesh/internal/grid"
)

// maxDigitAxes bounds the dimension of the shapes the odometer fill
// and the axis analysis handle with stack scratch. A shape with more
// axes has over 2³² nodes (each length is at least 2), far past any
// table; kernels past it take the division path and no closed form.
const maxDigitAxes = 32

// DigitKernel is the compiled form of a digit-separable node map: each
// guest coordinate independently determines a fixed set of host
// digits, so the host rank decomposes as
//
//	host(x) = Σ_i contrib[i][digit_i(x)]
//
// where digit_i(x) is the i-th row-major digit of guest rank x. All of
// the paper's construction maps (permutations, T_L, F_V/G_V/H_V, U_V,
// and the general-reduction supernode maps) are of this shape, and so
// is a composition of them whenever each stage but the last is
// disjoint (see Compose).
//
// The kernel records its host shape. Its axis analysis — the axis
// images and whether they are disjoint and carry-free over the host —
// is computed once, on first use, and backs the closed forms
// EdgeDilation and Bijective and the collapse of compositions.
type DigitKernel struct {
	lengths []int      // guest dimension lengths, leftmost first
	contrib []int      // rows of per-digit contributions, axis 0 first: row i has lengths[i] entries
	host    grid.Shape // host dimension lengths

	analyzeOnce sync.Once
	// images[row i, v] is the host rank of the guest node with
	// coordinate v on axis i and 0 elsewhere; nil when some image
	// leaves the host's rank range.
	images []int
	// disjoint: every host digit moves with at most one guest axis.
	// carryFree: the host-digit offsets of the axis images, summed over
	// all axes, keep every host digit in range. Disjoint implies
	// carry-free. bijective: disjoint, the images along every axis are
	// distinct, and guest and host have equal size.
	disjoint, carryFree, bijective bool
}

// EvalBatch implements Kernel: decode digits right-to-left and sum the
// per-dimension contributions. Allocation-free.
func (k *DigitKernel) EvalBatch(dst, src []int) {
	lengths, contrib := k.lengths, k.contrib
	for i, x := range src {
		sum, off := 0, len(contrib)
		for j := len(lengths) - 1; j >= 0; j-- {
			l := lengths[j]
			off -= l
			sum += contrib[off+x%l]
			x /= l
		}
		dst[i] = sum
	}
}

// CompileSeparable compiles a digit-separable node map into a
// DigitKernel by probing fn at the all-zeros guest node and at each
// single-coordinate value — Σ_i l_i + 1 evaluations in total. fn MUST
// map each guest coordinate independently to a fixed set of host digit
// positions (true for every construction in the paper); the compiled
// kernel is only guaranteed to agree with fn under that condition, and
// the package's parity tests enforce it for every producer.
func CompileSeparable(from, to grid.Spec, fn func(grid.Node) grid.Node) *DigitKernel {
	probe := make(grid.Node, from.Dim())
	base := to.Shape.Index(fn(probe))
	total := 0
	for _, l := range from.Shape {
		total += l
	}
	contrib := make([]int, total)
	off := 0
	for i, l := range from.Shape {
		for v := 1; v < l; v++ {
			probe[i] = v
			contrib[off+v] = to.Shape.Index(fn(probe)) - base
		}
		probe[i] = 0
		off += l
	}
	// Fold the base offset into dimension 0 so evaluation is a pure sum.
	for v := range from.Shape[0] {
		contrib[v] += base
	}
	return &DigitKernel{lengths: from.Shape.Clone(), contrib: contrib, host: to.Shape.Clone()}
}

// fill writes the kernel's image of guest ranks lo, lo+1, ... into
// out — the odometer form of EvalBatch behind Materialize. Only lo is
// decoded (the one division chain); after it each rank adds the last
// axis's contribution to the running sum of the others, and a carry
// into axis j swaps axis j's contribution for its next one. The sums
// are the integer sums EvalBatch computes, out-of-range ones included.
func (k *DigitKernel) fill(out []int, lo int) {
	d := len(k.lengths)
	if d > maxDigitAxes {
		for i := range out {
			out[i] = lo + i
		}
		k.EvalBatch(out, out)
		return
	}
	var digit, off [maxDigitAxes]int
	x, o := lo, len(k.contrib)
	for j := d - 1; j >= 0; j-- {
		l := k.lengths[j]
		o -= l
		off[j] = o
		digit[j] = x % l
		x /= l
	}
	last := d - 1
	rest := 0 // Σ contributions of every axis but the last
	for j := 0; j < last; j++ {
		rest += k.contrib[off[j]+digit[j]]
	}
	row := k.contrib[off[last]:]
	v := digit[last]
	for r := 0; r < len(out); {
		run := row[v:min(len(row), v+len(out)-r)]
		dst := out[r : r+len(run)]
		for t, c := range run {
			dst[t] = rest + c
		}
		r += len(run)
		v = 0
		for j := last - 1; j >= 0; j-- {
			rest -= k.contrib[off[j]+digit[j]]
			if digit[j]++; digit[j] < k.lengths[j] {
				rest += k.contrib[off[j]+digit[j]]
				break
			}
			digit[j] = 0
			rest += k.contrib[off[j]]
		}
	}
}

// analyze computes the axis analysis once. It allocates one slice,
// the images, and decodes each image into host digits once.
func (k *DigitKernel) analyze() {
	k.analyzeOnce.Do(func() {
		host, d := k.host, len(k.lengths)
		c := len(host)
		if d > maxDigitAxes || c == 0 || c > maxDigitAxes {
			return
		}
		hostSize := host.Size()
		origin := 0 // host rank of the all-zeros guest node
		off := 0
		for _, l := range k.lengths {
			origin += k.contrib[off]
			off += l
		}
		if origin < 0 || origin >= hostSize {
			return
		}
		images := make([]int, len(k.contrib))
		// lo/hi bound each host digit over every guest node: the
		// origin's digit plus each axis's extreme offsets; axLo/axHi
		// are one axis's extremes, and moved marks the digits an
		// earlier axis moves.
		var base, lo, hi, axLo, axHi [maxDigitAxes]int
		var moved [maxDigitAxes]bool
		r := origin
		for j := c - 1; j >= 0; j-- {
			base[j] = r % host[j]
			r /= host[j]
			lo[j], hi[j] = base[j], base[j]
		}
		disjoint := true
		off = 0
		for _, l := range k.lengths {
			clear(axLo[:c])
			clear(axHi[:c])
			for v := range l {
				img := origin + k.contrib[off+v] - k.contrib[off]
				if img < 0 || img >= hostSize {
					return
				}
				images[off+v] = img
				for j := c - 1; j >= 0; j-- {
					delta := img%host[j] - base[j]
					img /= host[j]
					axLo[j] = min(axLo[j], delta)
					axHi[j] = max(axHi[j], delta)
				}
			}
			for j := range c {
				if axLo[j] == 0 && axHi[j] == 0 {
					continue
				}
				lo[j] += axLo[j]
				hi[j] += axHi[j]
				disjoint = disjoint && !moved[j]
				moved[j] = true
			}
			off += l
		}
		k.images = images
		k.carryFree = true
		for j := range c {
			if lo[j] < 0 || hi[j] >= host[j] {
				k.carryFree = false
			}
		}
		k.disjoint = disjoint
		if !disjoint || grid.Shape(k.lengths).Size() != hostSize {
			return
		}
		// Each row is sorted in place to find repeats, then restored
		// from the contributions it was computed from.
		off = 0
		for _, l := range k.lengths {
			row := images[off : off+l]
			slices.Sort(row)
			distinct := true
			for v := 1; v < l; v++ {
				distinct = distinct && row[v] != row[v-1]
			}
			for v := range row {
				row[v] = origin + k.contrib[off+v] - k.contrib[off]
			}
			if !distinct {
				return
			}
			off += l
		}
		k.bijective = true
	})
}

// EdgeDilation is the closed form of g.EdgeDilation(table, rd) over the
// kernel's materialized table: the maximum and mean host distance over
// the guest's edges. When the kernel is carry-free over its host, the
// host digits of every guest node are the origin's digits plus the
// axis images' offsets, so an edge on axis i between coordinates v
// and w spans rd.Distance(images[i][v], images[i][w]) whatever the
// other coordinates, and g.Size()/l_i edges share that length. The
// pass visits Σ l_i axis edges, counts exactly the edges
// grid.VisitEdgesBatchRange enumerates (the torus wrap only when
// l > 2), and sums integer distances, so both results equal the edge
// pass's bit for bit.
//
// ok is false, and the caller must take the edge pass, when the kernel
// is not carry-free or g's shape is not the kernel's guest shape. rd
// must measure the kernel's host: for the kernel of Embedding.Digits,
// the embedding's host.
func (k *DigitKernel) EdgeDilation(g grid.Spec, rd *grid.RankDistancer) (max int, avg float64, ok bool) {
	if !g.Shape.Equal(k.lengths) {
		return 0, 0, false
	}
	k.analyze()
	if !k.carryFree {
		return 0, 0, false
	}
	n := g.Size()
	torus := g.Kind == grid.Torus
	var sum, edges int64
	measure := func(a, b, mult int) {
		d := rd.Distance(a, b)
		if d > max {
			max = d
		}
		sum += int64(mult) * int64(d)
		edges += int64(mult)
	}
	off := 0
	for _, l := range k.lengths {
		row := k.images[off : off+l]
		mult := n / l
		for v := 0; v+1 < l; v++ {
			measure(row[v], row[v+1], mult)
		}
		if torus && l > 2 {
			measure(row[l-1], row[0], mult)
		}
		off += l
	}
	return max, float64(sum) / float64(edges), true
}

// Bijective reports whether the closed form proves the kernel a
// bijection onto its host: it is disjoint, its images along each axis
// are distinct, and guest and host have equal size. Then two guest
// nodes that differ on axis i have images that differ on a host digit
// only axis i moves, so no two share an image, and every image is in
// range. This is a proof, not a skipped check: false means only that
// the caller must scan the images (Verify).
func (k *DigitKernel) Bijective() bool {
	k.analyze()
	return k.bijective
}

// AxisImages returns the axis images of a kernel Bijective proves a
// bijection, and nil for any other kernel: row i holds the host ranks
// of the guest nodes with coordinate v on axis i and 0 elsewhere, for
// v = 0..l_i-1, so every row starts at the origin's image. The rows are
// the analysis Bijective already ran, not a copy: the caller must not
// modify them.
func (k *DigitKernel) AxisImages() [][]int {
	if !k.Bijective() {
		return nil
	}
	rows := make([][]int, len(k.lengths))
	off := 0
	for i, l := range k.lengths {
		rows[i] = k.images[off : off+l : off+l]
		off += l
	}
	return rows
}

// then compiles "k, then next" into one digit kernel, or returns nil
// when the stages do not collapse. They collapse when k is disjoint
// over next's guest (k's host): then each host digit of k's image is
// fixed by one guest coordinate, so next — a sum over those digits —
// becomes a sum over guest coordinates, and its contributions are next
// evaluated at k's axis images. The new kernel shares k's lengths and
// allocates only its contribution table.
func (k *DigitKernel) then(next *DigitKernel) *DigitKernel {
	if !k.host.Equal(next.lengths) {
		return nil
	}
	k.analyze()
	if !k.disjoint {
		return nil
	}
	contrib := make([]int, len(k.images))
	next.EvalBatch(contrib, k.images)
	// Every row starts at the origin's image; keep it in row 0 only.
	origin := contrib[0]
	for v := k.lengths[0]; v < len(contrib); v++ {
		contrib[v] -= origin
	}
	return &DigitKernel{lengths: k.lengths, contrib: contrib, host: next.host}
}

// collapse returns the one-kernel form of "first, then second" when
// both are digit kernels that collapse, or nil.
func collapse(first, second Kernel) *DigitKernel {
	d1, ok := first.(*DigitKernel)
	if !ok {
		return nil
	}
	d2, ok := second.(*DigitKernel)
	if !ok {
		return nil
	}
	return d1.then(d2)
}
