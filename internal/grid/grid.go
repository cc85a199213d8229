// Package grid defines the two graph families studied by Ma & Tao
// (Embeddings Among Toruses and Meshes, ICPP 1987): d-dimensional toruses
// and meshes. It provides shapes, node coordinates, closed-form distance
// functions (Lemmas 5 and 6 of the paper), neighbor enumeration, and
// explicit adjacency graphs with BFS used as ground truth in tests.
//
// Terminology follows the paper: an (l1,...,ld)-torus has nodes
// (i1,...,id) with ij in [lj], and wrap-around neighbors in every
// dimension; an (l1,...,ld)-mesh omits the wrap-around edges. A ring is a
// 1-dimensional torus, a line a 1-dimensional mesh, and a hypercube a
// graph whose shape is all twos (it is simultaneously a torus and a mesh).
package grid

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind distinguishes the two graph families.
type Kind int

const (
	// Torus is the family with wrap-around edges in every dimension.
	Torus Kind = iota
	// Mesh is the family without wrap-around edges.
	Mesh
)

// String returns "torus" or "mesh".
func (k Kind) String() string {
	switch k {
	case Torus:
		return "torus"
	case Mesh:
		return "mesh"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is one of the two defined kinds.
func (k Kind) Valid() bool { return k == Torus || k == Mesh }

// ParseKind parses "torus", "mesh", "ring" (1-d torus) or "line" (1-d
// mesh). Ring and line parse to their family; the dimension is carried by
// the shape.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "torus", "ring":
		return Torus, nil
	case "mesh", "line", "array", "grid":
		return Mesh, nil
	default:
		return 0, fmt.Errorf("grid: unknown kind %q (want torus or mesh)", s)
	}
}

// Shape is the list (l1,...,ld) of dimension lengths. Every length must be
// at least 2 (Definition 2 and 3 of the paper).
type Shape []int

// Dim returns the dimension d of the shape.
func (s Shape) Dim() int { return len(s) }

// Size returns the number of nodes, the product of all dimension lengths.
func (s Shape) Size() int {
	n := 1
	for _, l := range s {
		n *= l
	}
	return n
}

// Validate checks that the shape is non-empty, every length is >= 2,
// and the node count fits an int (so Size is exact).
func (s Shape) Validate() error {
	if len(s) == 0 {
		return errors.New("grid: empty shape")
	}
	for i, l := range s {
		if l < 2 {
			return fmt.Errorf("grid: dimension %d has length %d; every length must be >= 2", i+1, l)
		}
	}
	n := 1
	for _, l := range s {
		if n > math.MaxInt/l {
			return fmt.Errorf("grid: shape %s has more than %d nodes", s, math.MaxInt)
		}
		n *= l
	}
	return nil
}

// IsSquare reports whether all dimension lengths are equal.
func (s Shape) IsSquare() bool {
	for _, l := range s {
		if l != s[0] {
			return false
		}
	}
	return len(s) > 0
}

// IsHypercube reports whether every dimension has length 2. A hypercube is
// simultaneously a torus and a mesh (Definition 4).
func (s Shape) IsHypercube() bool {
	for _, l := range s {
		if l != 2 {
			return false
		}
	}
	return len(s) > 0
}

// Equal reports element-wise equality.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of s.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as "l1xl2x...xld".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, l := range s {
		parts[i] = strconv.Itoa(l)
	}
	return strings.Join(parts, "x")
}

// ParseShape parses "4x2x3" (also accepting "," as a separator).
func ParseShape(str string) (Shape, error) {
	str = strings.TrimSpace(str)
	if str == "" {
		return nil, errors.New("grid: empty shape string")
	}
	str = strings.ReplaceAll(str, ",", "x")
	parts := strings.Split(str, "x")
	s := make(Shape, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("grid: bad shape component %q: %v", p, err)
		}
		s = append(s, v)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Square returns the square shape with d dimensions of length l.
func Square(d, l int) Shape {
	s := make(Shape, d)
	for i := range s {
		s[i] = l
	}
	return s
}

// Hypercube returns the shape of the hypercube with 2^d nodes.
func Hypercube(d int) Shape { return Square(d, 2) }

// Node is a coordinate list (i1,...,id) with ij in [lj].
type Node []int

// Clone returns a copy of the node.
func (n Node) Clone() Node {
	c := make(Node, len(n))
	copy(c, n)
	return c
}

// Equal reports element-wise equality.
func (n Node) Equal(m Node) bool {
	if len(n) != len(m) {
		return false
	}
	for i := range n {
		if n[i] != m[i] {
			return false
		}
	}
	return true
}

// String renders the node as "(i1,i2,...)".
func (n Node) String() string {
	parts := make([]string, len(n))
	for i, v := range n {
		parts[i] = strconv.Itoa(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// InBounds reports whether the node is a valid coordinate of shape s.
func (n Node) InBounds(s Shape) bool {
	if len(n) != len(s) {
		return false
	}
	for i, v := range n {
		if v < 0 || v >= s[i] {
			return false
		}
	}
	return true
}

// Index converts a node to its row-major index in [Size()). The leftmost
// coordinate is the most significant digit, matching the radix-L
// representation of Definition 7.
func (s Shape) Index(n Node) int {
	x := 0
	for j, v := range n {
		x = x*s[j] + v
	}
	return x
}

// Weight returns the row-major weight of axis j, the product of the
// lengths after it: Index(n) = Σ_j n[j]·Weight(j).
func (s Shape) Weight(j int) int {
	w := 1
	for _, l := range s[j+1:] {
		w *= l
	}
	return w
}

// NodeAt converts a row-major index back to a node.
func (s Shape) NodeAt(x int) Node {
	n := make(Node, len(s))
	for j := len(s) - 1; j >= 0; j-- {
		n[j] = x % s[j]
		x /= s[j]
	}
	return n
}

// abs returns the absolute value of v.
func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// DistanceTorus is the δt distance of Lemma 5:
// Σ_k min(|i_k − i'_k|, l_k − |i_k − i'_k|).
func DistanceTorus(s Shape, a, b Node) int {
	d := 0
	for k := range s {
		diff := abs(a[k] - b[k])
		if w := s[k] - diff; w < diff {
			diff = w
		}
		d += diff
	}
	return d
}

// DistanceMesh is the δm distance of Lemma 6: Σ_k |i_k − i'_k|.
func DistanceMesh(s Shape, a, b Node) int {
	d := 0
	for k := range s {
		d += abs(a[k] - b[k])
	}
	return d
}

// Spec identifies a concrete graph: a kind plus a shape.
type Spec struct {
	Kind  Kind
	Shape Shape
}

// NewSpec validates and constructs a Spec.
func NewSpec(kind Kind, shape Shape) (Spec, error) {
	if !kind.Valid() {
		return Spec{}, fmt.Errorf("grid: invalid kind %d", int(kind))
	}
	if err := shape.Validate(); err != nil {
		return Spec{}, err
	}
	return Spec{Kind: kind, Shape: shape.Clone()}, nil
}

// MustSpec is NewSpec but panics on error; intended for tests and fixed
// literals.
func MustSpec(kind Kind, shape Shape) Spec {
	sp, err := NewSpec(kind, shape)
	if err != nil {
		panic(err)
	}
	return sp
}

// TorusSpec returns the torus with the given shape.
func TorusSpec(shape ...int) Spec { return MustSpec(Torus, Shape(shape)) }

// MeshSpec returns the mesh with the given shape.
func MeshSpec(shape ...int) Spec { return MustSpec(Mesh, Shape(shape)) }

// RingSpec returns the ring (1-dimensional torus) of size n.
func RingSpec(n int) Spec { return MustSpec(Torus, Shape{n}) }

// LineSpec returns the line (1-dimensional mesh) of size n.
func LineSpec(n int) Spec { return MustSpec(Mesh, Shape{n}) }

// Size returns the number of nodes.
func (sp Spec) Size() int { return sp.Shape.Size() }

// Dim returns the dimension.
func (sp Spec) Dim() int { return sp.Shape.Dim() }

// IsHypercube reports whether the spec is a hypercube (all lengths 2), in
// which case torus and mesh coincide.
func (sp Spec) IsHypercube() bool { return sp.Shape.IsHypercube() }

// String renders e.g. "torus(4x2x3)", or "ring(8)"/"line(8)" for
// 1-dimensional graphs.
func (sp Spec) String() string {
	if sp.Dim() == 1 {
		if sp.Kind == Torus {
			return fmt.Sprintf("ring(%d)", sp.Shape[0])
		}
		return fmt.Sprintf("line(%d)", sp.Shape[0])
	}
	return fmt.Sprintf("%s(%s)", sp.Kind, sp.Shape)
}

// ParseSpec parses "torus:4x2x3", "mesh:6x9", "ring:24" or "line:24".
func ParseSpec(str string) (Spec, error) {
	parts := strings.SplitN(str, ":", 2)
	if len(parts) != 2 {
		return Spec{}, fmt.Errorf("grid: spec %q must look like kind:shape, e.g. torus:4x2x3", str)
	}
	kind, err := ParseKind(parts[0])
	if err != nil {
		return Spec{}, err
	}
	shape, err := ParseShape(parts[1])
	if err != nil {
		return Spec{}, err
	}
	low := strings.ToLower(strings.TrimSpace(parts[0]))
	if (low == "ring" || low == "line") && shape.Dim() != 1 {
		return Spec{}, fmt.Errorf("grid: %s must be 1-dimensional, got shape %s", low, shape)
	}
	return NewSpec(kind, shape)
}

// Distance returns the graph distance between two nodes using the
// closed-form expressions of Lemmas 5 and 6.
func (sp Spec) Distance(a, b Node) int {
	if sp.Kind == Torus {
		return DistanceTorus(sp.Shape, a, b)
	}
	return DistanceMesh(sp.Shape, a, b)
}

// Degree returns the degree of node n.
func (sp Spec) Degree(n Node) int {
	if sp.Kind == Torus {
		deg := 0
		for _, l := range sp.Shape {
			if l == 2 {
				deg++ // left and right neighbor coincide
			} else {
				deg += 2
			}
		}
		return deg
	}
	deg := 0
	for j, l := range sp.Shape {
		if n[j] > 0 {
			deg++
		}
		if n[j] < l-1 {
			deg++
		}
	}
	return deg
}

// MaxDegree returns the maximum node degree in the graph.
func (sp Spec) MaxDegree() int {
	if sp.Kind == Torus {
		return sp.Degree(nil)
	}
	deg := 0
	for _, l := range sp.Shape {
		if l > 2 {
			deg += 2
		} else {
			deg++
		}
	}
	// Interior nodes have two neighbors per dimension when l >= 3; a
	// dimension of length 2 contributes one edge endpoint everywhere.
	return deg
}

// Neighbors appends the neighbors of node n to dst and returns it. Each
// neighbor is a fresh Node. For a torus dimension of length 2 the left and
// right neighbors coincide and are reported once.
func (sp Spec) Neighbors(n Node, dst []Node) []Node {
	for j, l := range sp.Shape {
		if sp.Kind == Torus {
			right := n.Clone()
			right[j] = (n[j] + 1) % l
			dst = append(dst, right)
			if l > 2 {
				left := n.Clone()
				left[j] = (n[j] - 1 + l) % l
				dst = append(dst, left)
			}
			continue
		}
		if n[j]+1 < l {
			right := n.Clone()
			right[j]++
			dst = append(dst, right)
		}
		if n[j] > 0 {
			left := n.Clone()
			left[j]--
			dst = append(dst, left)
		}
	}
	return dst
}

// EdgeCount returns the number of edges in the graph.
func (sp Spec) EdgeCount() int {
	n := sp.Size()
	total := 0
	for _, l := range sp.Shape {
		perLine := l - 1 // mesh edges along one line of this dimension
		if sp.Kind == Torus {
			if l == 2 {
				perLine = 1 // wrap edge coincides with the line edge
			} else {
				perLine = l
			}
		}
		total += perLine * (n / l)
	}
	return total
}

// VisitEdges calls fn once for every edge (a, b) of the graph. Nodes are
// reused between calls; clone them if retained. Each undirected edge is
// visited exactly once.
func (sp Spec) VisitEdges(fn func(a, b Node)) {
	n := sp.Size()
	a := make(Node, sp.Dim())
	b := make(Node, sp.Dim())
	for x := 0; x < n; x++ {
		idxToNode(sp.Shape, x, a)
		for j, l := range sp.Shape {
			orig := a[j]
			// Right neighbor covers every mesh edge once. For toruses the
			// wrap edge (l-1 -> 0) is also a "right" step; skip it for
			// l == 2 where it would duplicate the 0 -> 1 edge.
			if orig+1 < l {
				copy(b, a)
				b[j] = orig + 1
				fn(a, b)
			} else if sp.Kind == Torus && l > 2 {
				copy(b, a)
				b[j] = 0
				fn(a, b)
			}
		}
	}
}

// idxToNode writes the row-major coordinates of x into dst.
func idxToNode(s Shape, x int, dst Node) {
	for j := len(s) - 1; j >= 0; j-- {
		dst[j] = x % s[j]
		x /= s[j]
	}
}
