package census

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"strconv"

	"torusmesh/internal/netsim"
)

// HopBin is one bucket of a route-length distribution: Edges guest
// edges are routed at distance Dist.
type HopBin struct{ Dist, Edges int }

// HopHist is a route-length distribution as its buckets, ascending by
// distance. A census keeps one per pair for its whole run, and a slice
// of bins holds a fraction of what a map of the same buckets holds. It
// encodes as the JSON object encoding/json writes for the map[int]int
// of the same buckets, keys in string order ({"1":4,"10":3,"2":1}), and
// decodes exactly what that map decodes.
type HopHist []HopBin

// hopHist returns the occupied buckets of a dense histogram, nil when
// there are none.
func hopHist(h netsim.HopHistogram) HopHist {
	n := 0
	for _, v := range h {
		if v != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	bins := make(HopHist, 0, n)
	for d, v := range h {
		if v != 0 {
			bins = append(bins, HopBin{d, int(v)})
		}
	}
	return bins
}

// MarshalJSON writes the buckets as encoding/json writes a map[int]int:
// an object of decimal distance keys in string order, or null for a nil
// histogram. It writes the bytes directly, with no map in between.
func (h HopHist) MarshalJSON() ([]byte, error) {
	if h == nil {
		return []byte("null"), nil
	}
	if !slices.IsSortedFunc(h, byKey) {
		h = slices.Clone(h)
		slices.SortFunc(h, byKey)
	}
	buf := make([]byte, 0, 2+12*len(h))
	buf = append(buf, '{')
	for i, b := range h {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = strconv.AppendInt(buf, int64(b.Dist), 10)
		buf = append(buf, '"', ':')
		buf = strconv.AppendInt(buf, int64(b.Edges), 10)
	}
	return append(buf, '}'), nil
}

// byKey orders bins as encoding/json orders map keys: by the distance's
// decimal string.
func byKey(a, b HopBin) int {
	var x, y [20]byte
	return bytes.Compare(strconv.AppendInt(x[:0], int64(a.Dist), 10), strconv.AppendInt(y[:0], int64(b.Dist), 10))
}

// UnmarshalJSON decodes the object through a map[int]int, so it accepts
// and rejects what that map does (keys such as "01" included, a
// repeated key keeping its last value), and keeps the buckets ascending
// by distance. null decodes to a nil histogram.
func (h *HopHist) UnmarshalJSON(data []byte) error {
	var m map[int]int
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*h = nil
		return nil
	}
	bins := make(HopHist, 0, len(m))
	for d, v := range m {
		bins = append(bins, HopBin{d, v})
	}
	slices.SortFunc(bins, func(a, b HopBin) int { return cmp.Compare(a.Dist, b.Dist) })
	*h = bins
	return nil
}
