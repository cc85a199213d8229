package census

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestHopHistEncodesAsMap: a HopHist encodes to the bytes
// encoding/json writes for the map[int]int of its buckets, keys in
// string order past 9 included, and decodes back to itself, alone and
// as a PairResult field; a nil histogram is omitted from a record and
// an empty one is the empty object.
func TestHopHistEncodesAsMap(t *testing.T) {
	for _, h := range []HopHist{
		nil,
		{},
		{{0, 3}},
		{{1, 4}, {2, 1}, {10, 3}},
		{{1, 7}, {2, 6}, {3, 5}, {9, 4}, {10, 3}, {11, 2}, {20, 1}, {100, 1}, {123456789, 2}},
		{{-12, 1}, {-3, 2}, {0, 1}, {7, 0}},
	} {
		var m map[int]int
		if h != nil {
			m = make(map[int]int)
			for _, b := range h {
				m[b.Dist] = b.Edges
			}
		}
		got, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%v encodes as %s, the map as %s", h, got, want)
		}
		var back HopHist
		if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, h) {
			t.Errorf("%s decodes to %v (%v), want %v", got, back, err, h)
		}
		rec, err := json.Marshal(PairResult{HopHist: h})
		if err != nil {
			t.Fatal(err)
		}
		wantRec, err := json.Marshal(struct {
			PairResult
			HopHist map[int]int `json:"hop_hist,omitempty"`
		}{HopHist: m})
		if err != nil {
			t.Fatal(err)
		}
		if string(rec) != string(wantRec) {
			t.Errorf("record with %v encodes as %s, with the map as %s", h, rec, wantRec)
		}
		var r PairResult
		if err := json.Unmarshal(rec, &r); err != nil || len(r.HopHist) != len(h) || len(h) > 0 && !reflect.DeepEqual(r.HopHist, h) {
			t.Errorf("record %s decodes to %v (%v), want %v", rec, r.HopHist, err, h)
		}
	}
}

// TestHopHistDecodesAsMap: a HopHist accepts exactly the JSON a
// map[int]int accepts, with the same buckets: signs and leading zeros
// in keys, escapes, repeated keys, null values and null itself are
// accepted as the map accepts them, and every other value, key or
// number the map refuses is refused.
func TestHopHistDecodesAsMap(t *testing.T) {
	for _, in := range []string{
		`{}`, `null`, `{"1":2}`, `{"2":1,"1":4,"10":3}`, `{"01":2}`, `{"+3":1}`, `{"-0":1}`,
		`{"1":5}`, `{"1":2,"1":3}`, `{"1":2,"01":3}`, `{"1":null}`, `{"1":-4}`,
		` { "1" : 2 } `, `{"9223372036854775807":1}`,
		`[]`, `[[1,2]]`, `"x"`, `1`, `true`, `{"a":1}`, `{"":1}`, `{"1.5":1}`, `{" 1":1}`,
		`{"9223372036854775808":1}`, `{"1":1.5}`, `{"1":1e2}`, `{"1":"2"}`, `{"1":true}`,
		`{"1":[]}`, `{"1":{}}`, `{"1":2`, `{"1":2,}`, `{1:2}`, ``,
	} {
		var m map[int]int
		mapErr := json.Unmarshal([]byte(in), &m)
		var h HopHist
		err := json.Unmarshal([]byte(in), &h)
		if (err == nil) != (mapErr == nil) {
			t.Errorf("%s: HopHist error %v, map error %v", in, err, mapErr)
			continue
		}
		if err != nil {
			continue
		}
		if (h == nil) != (m == nil) || len(h) != len(m) {
			t.Errorf("%s: HopHist %v, map %v", in, h, m)
			continue
		}
		for i, b := range h {
			if v, ok := m[b.Dist]; !ok || v != b.Edges || i > 0 && h[i-1].Dist >= b.Dist {
				t.Errorf("%s: HopHist %v, map %v", in, h, m)
				break
			}
		}
	}
}
