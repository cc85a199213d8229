package embed

// This file is the digit kernel: the form every one of Ma & Tao's
// constructions writes through NewRows, the collapse that turns a
// composition of such kernels back into one kernel, the odometer fill
// that materializes a kernel without division, and the closed forms
// that measure a kernel's dilation from its Σ l_i axis images and prove
// its injectivity from its components: the groups of guest axes that
// move a common host digit. A kernel whose components move disjoint
// host digits is the product of one smaller embedding per component, so
// it is injective when each component is, a scan of Σ_C |C| points
// instead of N.

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

// DigitKernel is the form of a digit-separable map: each guest
// coordinate independently determines a fixed set of host digits, so
// the host rank decomposes as
//
//	host(x) = Σ_i contrib[i][digit_i(x)]
//
// where digit_i(x) is the i-th row-major digit of guest rank x. All of
// the paper's construction maps (the basic maps f_L, g_L and h_L,
// permutations, rotations, T_L, F_V/G_V/H_V, U_V, and the
// general-reduction supernode maps) are of this shape and write their
// rows through NewRows, and so is a composition of them whenever each
// stage but the last is disjoint (see Compose).
//
// The kernel records its host shape. Its axis analysis — the axis
// images, whether they are disjoint and carry-free over the host, and
// the components they group into — is computed once, on first use, and
// backs the closed forms EdgeDilation and Bijective and the collapse of
// compositions.
type DigitKernel struct {
	lengths []int      // guest dimension lengths, leftmost first
	contrib []int      // rows of per-digit contributions, axis 0 first: row i has lengths[i] entries
	host    grid.Shape // host dimension lengths

	analyzeOnce sync.Once
	// images[row i, v] is the host rank of the guest node with
	// coordinate v on axis i and 0 elsewhere; nil when some image
	// leaves the host's rank range.
	images []int
	// parts are the components of a kernel Bijective proves a
	// bijection, nil for any other kernel.
	parts []axisGroup
	// disjoint: every host digit moves with at most one guest axis.
	// carryFree: the host-digit offsets of the axis images, summed over
	// all axes, keep every host digit in range. Disjoint implies
	// carry-free.
	disjoint, carryFree bool
}

// axisGroup is one component as bit masks: the guest axes it groups
// and the host digits they move.
type axisGroup struct{ guest, host uint32 }

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

// NewRows builds an embedding from a construction's rows. share(i, v)
// is the host-rank share of value v on guest axis i: the host rank of
// guest node x is Σ_i share(i, x_i). Every construction of the paper
// has this form, since each guest coordinate fixes its own block of
// host digits; its share is that block's digits weighted by the host's
// row-major weights (grid.Shape.Weight). share is called once per
// (axis, value), Σ_i l_i times, and not retained.
//
// The rows are stored in the kernel's format: row 0 carries the
// origin's image, and every other row is relative to its own value 0.
func NewRows(from, to grid.Spec, strategy string, predicted int, share func(i, v int) int) (*Embedding, error) {
	e, err := NewKernel(from, to, strategy, predicted, nil)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, l := range from.Shape {
		total += l
	}
	k := newDigitKernel(from.Shape, to.Shape, total)
	contrib := k.contrib
	origin, off := 0, 0
	for i, l := range from.Shape {
		row := contrib[off : off+l]
		for v := range row {
			row[v] = share(i, v)
		}
		origin += row[0]
		for v := l - 1; v >= 0; v-- {
			row[v] -= row[0]
		}
		off += l
	}
	for v := range from.Shape[0] {
		contrib[v] += origin
	}
	e.kernel = k
	return e, nil
}

// newDigitKernel allocates a kernel's total contribution entries and
// its copies of both shapes in one buffer, so a kernel keeps no other
// kernel's rows reachable.
func newDigitKernel(lengths, host []int, total int) *DigitKernel {
	d := len(lengths)
	buf := make([]int, total+d+len(host))
	return &DigitKernel{
		contrib: buf[:total:total],
		lengths: append(buf[total:total:total+d], lengths...),
		host:    grid.Shape(append(buf[total+d:total+d], host...)),
	}
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

// analyze computes the axis analysis once. It allocates the images,
// decodes each image into host digits once, and groups the axes into
// components on the stack; a kernel it proves a bijection also keeps
// its components, and one with a multi-axis component needs a bitset
// of host ranks for the proof (componentsInjective).
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
		// are one axis's extremes, and moves[i] marks the digits axis i
		// moves.
		var base, lo, hi, axLo, axHi [maxDigitAxes]int
		var moves [maxDigitAxes]uint32
		r := origin
		for j := c - 1; j >= 0; j-- {
			base[j] = r % host[j]
			r /= host[j]
			lo[j], hi[j] = base[j], base[j]
		}
		off = 0
		for i, l := range k.lengths {
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
				moves[i] |= 1 << j
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
		var groups [maxDigitAxes]axisGroup
		n := groupAxes(moves[:d], &groups)
		k.disjoint = n == d
		// One component spanning several axes would be a scan of all N
		// points: such a kernel is left to Verify's scan.
		if !k.carryFree || grid.Shape(k.lengths).Size() != hostSize || (n == 1 && d > 1) {
			return
		}
		if k.componentsInjective(groups[:n], origin, hostSize) {
			k.parts = append([]axisGroup(nil), groups[:n]...)
		}
	})
}

// groupAxes merges the guest axes that move a common host digit,
// directly or through other axes, into groups and returns how many;
// moves[i] is the digit mask of axis i. The groups' digit masks stay
// pairwise disjoint, so one pass over them finds every group an axis
// joins.
func groupAxes(moves []uint32, groups *[maxDigitAxes]axisGroup) int {
	n := 0
	for i, m := range moves {
		joined := axisGroup{guest: 1 << i, host: m}
		kept := 0
		for _, g := range groups[:n] {
			if g.host&m != 0 {
				joined.guest |= g.guest
				joined.host |= g.host
				continue
			}
			groups[kept] = g
			kept++
		}
		groups[kept] = joined
		n = kept + 1
	}
	return n
}

// componentsInjective reports whether every group of a carry-free
// kernel maps its points — the guest nodes that are 0 off its axes —
// to distinct host ranks. A single axis's row is sorted in place to
// find repeats, then restored from the contributions it was computed
// from. A multi-axis group's points are walked by odometer, each
// image the origin plus its axes' image offsets, and claimed in a
// bitset of host ranks. Two groups' points share only the origin's
// image, which is claimed once up front, so one bitset serves them
// all.
func (k *DigitKernel) componentsInjective(groups []axisGroup, origin, hostSize int) bool {
	var rowOff [maxDigitAxes + 1]int
	for i, l := range k.lengths {
		rowOff[i+1] = rowOff[i] + l
	}
	row := func(i int) []int { return k.images[rowOff[i]:rowOff[i+1]] }
	var small [16]uint64 // hosts up to 1024 nodes claim on the stack
	var claimed []uint64
	for _, g := range groups {
		var axes, digit [maxDigitAxes]int
		m := 0
		for i := range k.lengths {
			if g.guest>>i&1 != 0 {
				axes[m] = i
				m++
			}
		}
		if m == 1 {
			r, off := row(axes[0]), rowOff[axes[0]]
			slices.Sort(r)
			distinct := true
			for v := 1; v < len(r); v++ {
				distinct = distinct && r[v] != r[v-1]
			}
			for v := range r {
				r[v] = origin + k.contrib[off+v] - k.contrib[off]
			}
			if !distinct {
				return false
			}
			continue
		}
		if claimed == nil {
			if words := (hostSize + 63) / 64; words <= len(small) {
				claimed = small[:words]
			} else {
				claimed = make([]uint64, words)
			}
			claimed[origin>>6] |= 1 << (origin & 63)
		}
		for h := origin; ; {
			q := m - 1
			for ; q >= 0; q-- {
				r := row(axes[q])
				h -= r[digit[q]]
				if digit[q]++; digit[q] < len(r) {
					h += r[digit[q]]
					break
				}
				digit[q] = 0
				h += r[0]
			}
			if q < 0 {
				break
			}
			bit := uint64(1) << (h & 63)
			if claimed[h>>6]&bit != 0 {
				return false
			}
			claimed[h>>6] |= bit
		}
	}
	return true
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
// bijection onto its host: it is carry-free, guest and host have equal
// size, and each component maps its points to distinct images. A
// component is a group of guest axes that move a common host digit,
// directly or through other axes of the group, so components move
// disjoint host digits, and two guest nodes share an image exactly when
// every component maps their coordinates to the same point. The proof
// scans Σ_C |C| points, sorting a single axis's images. A kernel whose
// one component spans several axes is not proved: that scan would be
// all N points. This is a proof, not a skipped check: false means only
// that the caller must scan the images (Verify).
func (k *DigitKernel) Bijective() bool {
	k.analyze()
	return k.parts != nil
}

// Component is one component of a proved bijection
// (DigitKernel.Components): guest axes that move a common host digit,
// directly or through one another. The kernel is the product of its
// components' maps, each moving only its own host axes.
type Component struct {
	// Axes are the component's guest axes, ascending, and Images[q]
	// the axis images of Axes[q]: the host ranks of the guest nodes
	// with coordinate v on that axis and 0 elsewhere, for v = 0..l-1,
	// so every row starts at the origin's image.
	Axes   []int
	Images [][]int
	// HostAxes are the host axes the component moves, ascending. The
	// component's points fill the fiber of host nodes that agree with
	// the origin's image off these axes, one point per node.
	HostAxes []int
}

// Components returns the components of a kernel Bijective proves a
// bijection, and nil for any other kernel. The image rows are the
// analysis Bijective already ran, not a copy: the caller must not
// modify them.
func (k *DigitKernel) Components() []Component {
	if !k.Bijective() {
		return nil
	}
	d, c := len(k.lengths), len(k.host)
	comps := make([]Component, len(k.parts))
	axes := make([]int, 0, d+c) // every component's Axes, then HostAxes
	rows := make([][]int, 0, d)
	for ci, g := range k.parts {
		first, firstRow := len(axes), len(rows)
		off := 0
		for i, l := range k.lengths {
			if g.guest>>i&1 != 0 {
				axes = append(axes, i)
				rows = append(rows, k.images[off:off+l:off+l])
			}
			off += l
		}
		comps[ci].Axes = axes[first:len(axes):len(axes)]
		comps[ci].Images = rows[firstRow:len(rows):len(rows)]
		first = len(axes)
		for j := range c {
			if g.host>>j&1 != 0 {
				axes = append(axes, j)
			}
		}
		comps[ci].HostAxes = axes[first:len(axes):len(axes)]
	}
	return comps
}

// then compiles "k, then next" into one digit kernel, or returns nil
// when the stages do not collapse. They collapse when k is disjoint
// over next's guest (k's host): then each host digit of k's image is
// fixed by one guest coordinate, so next — a sum over those digits —
// becomes a sum over guest coordinates, and its contributions are next
// evaluated at k's axis images. The new kernel allocates only its
// contribution table and copies of both shapes (newDigitKernel).
func (k *DigitKernel) then(next *DigitKernel) *DigitKernel {
	if !k.host.Equal(next.lengths) {
		return nil
	}
	k.analyze()
	if !k.disjoint {
		return nil
	}
	out := newDigitKernel(k.lengths, next.host, len(k.images))
	contrib := out.contrib
	next.EvalBatch(contrib, k.images)
	// Every row starts at the origin's image; keep it in row 0 only.
	origin := contrib[0]
	for v := k.lengths[0]; v < len(contrib); v++ {
		contrib[v] -= origin
	}
	return out
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
