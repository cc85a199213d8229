// Candidate enumeration: the deterministic, tiered generation of
// symmetry variants around the base strategies, and the construction of
// one variant's composite embedding
//
//	hostRot ∘ hostPermBack ∘ base(guestPerm(G) → hostPerm(H)) ∘ guestPerm ∘ guestRot
//
// where base is the strategy's construction, optionally rebuilt around
// a rotation of its intermediate stage (mid-rotation variants).
//
// The enumeration order is the contract the budget and the score
// tie-break rely on: index 0 is the paper baseline, earlier tiers hold
// the cheaper/simpler variants, and a truncated budget still samples
// every generator before the permutation cross product.
//
// Construction is split in two so candidates stay cheap: everything up
// to and including the base construction (buildBase) is cached per
// distinct (strategy, guest symmetries, mid rotation, permuted host
// shape), and the host-side symmetries — the permutation back from the
// permuted host and the host rotation — are pure relabelings of host
// ranks, post-composed onto the cached base (embed.PostCompose): as one
// digit kernel when the base is disjoint, so the candidate has no table
// until it is scored, and otherwise as a single table fusion. On hosts
// with equal-length axes every member of the host permutation group
// targets the same permuted shape, so the whole tier shares one
// construction.

package place

import (
	"fmt"
	"strconv"

	"torusmesh/internal/catalog"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

// maxPermDim caps the dimension up to which axis permutations are
// enumerated: beyond it the factorial group would dwarf any budget, so
// only the identity ordering is kept.
const maxPermDim = 7

// variantSpec describes one candidate before construction. nil perms
// and rotations mean identity/none.
type variantSpec struct {
	strategy     int // index into Config.Strategies
	gperm, hperm perm.Perm
	grot, hrot   []int
	midrot       []int // rotation of the strategy's intermediate stage
}

// key is the dedup identity of a variant.
func (v variantSpec) key() string {
	k := strconv.AppendInt(make([]byte, 0, 64), int64(v.strategy), 10)
	k = appendInts(appendInts(appendInts(k, v.gperm), v.hperm), v.grot)
	return string(appendInts(appendInts(k, v.hrot), v.midrot))
}

// appendInts appends the list's length and then its values to a key,
// so distinct lists never share a key. A nil list and an empty one
// (both the identity) do.
func appendInts(key []byte, xs []int) []byte {
	key = strconv.AppendInt(append(key, '|'), int64(len(xs)), 10)
	for _, x := range xs {
		key = strconv.AppendInt(append(key, ','), int64(x), 10)
	}
	return key
}

// describe fills the serializable form of the variant.
func (v variantSpec) describe(idx int, cfg *Config) Candidate {
	c := Candidate{Index: idx, Strategy: cfg.Strategies[v.strategy].Name}
	c.GuestPerm = append([]int(nil), v.gperm...)
	c.HostPerm = append([]int(nil), v.hperm...)
	c.GuestRot = append([]int(nil), v.grot...)
	c.HostRot = append([]int(nil), v.hrot...)
	c.MidRot = append([]int(nil), v.midrot...)
	return c
}

// guestPerms returns the guest-side permutation generator: distinct
// axis orderings only, since equal-length guest axis swaps are
// automorphisms that leave every metric unchanged.
func guestPerms(s grid.Shape) []perm.Perm {
	if s.Dim() > maxPermDim {
		return []perm.Perm{perm.Identity(s.Dim())}
	}
	return catalog.AxisOrderings(s)
}

// hostPerms returns the host-side permutation generator: the full
// permutation group, because even an equal-length host axis swap
// reorders dimension-ordered routing and changes congestion.
func hostPerms(s grid.Shape) []perm.Perm {
	if s.Dim() > maxPermDim {
		return []perm.Perm{perm.Identity(s.Dim())}
	}
	return perm.All(s.Dim())
}

// rotOffsets returns the rotation amounts tried on one axis of length
// l: a unit twist, the half turn, and the inverse unit twist.
func rotOffsets(l int) []int {
	out := []int{1}
	if h := l / 2; h > 1 {
		out = append(out, h)
	}
	if l-1 > l/2 && l-1 > 1 {
		out = append(out, l-1)
	}
	return out
}

// isIdentity reports whether p maps every position to itself.
func isIdentity(p perm.Perm) bool {
	for j, v := range p {
		if v != j {
			return false
		}
	}
	return true
}

// rotationSide returns the single-axis rotation count of one side of
// the pair: zero for toruses, where rotations are metric-invariant.
func rotationSide(sp grid.Spec) int {
	if sp.Kind != grid.Mesh {
		return 0
	}
	n := 0
	for _, l := range sp.Shape {
		n += len(rotOffsets(l))
	}
	return n
}

// midRotations returns the single-axis rotations of a strategy's
// intermediate stage for the pair, or nil when the strategy exposes no
// intermediate. Unlike host/guest rotations these are enumerated for
// torus intermediates too: rotating the intermediate changes which of
// its nodes the second stage coarsens together, so the composite is a
// new embedding even when the rotation is an automorphism of the
// intermediate itself.
func midRotations(cfg *Config, si int) [][]int {
	st := cfg.Strategies[si]
	if st.Mid == nil {
		return nil
	}
	mid, ok := st.Mid(cfg.Guest, cfg.Host)
	if !ok {
		return nil
	}
	var out [][]int
	for j, l := range mid.Shape {
		for _, r := range rotOffsets(l) {
			rot := make([]int, mid.Dim())
			rot[j] = r
			out = append(out, rot)
		}
	}
	return out
}

// enumerate generates the budget-truncated candidate list and the size
// of the full space. The baseline (first strategy, identity
// symmetries) is always entry 0. Generation stops as soon as the
// budget is filled — the space size is computed arithmetically, so a
// small budget never pays for a factorial cross product — and the
// deduped tier walk makes both the list and the count independent of
// the budget prefix they share.
func enumerate(cfg *Config) ([]variantSpec, int) {
	gps := guestPerms(cfg.Guest.Shape)
	hps := hostPerms(cfg.Host.Shape)
	// Tiers 0-2 are subsets of the tier-5 cross product, and rotation /
	// mid-rotation variants never collide with permutation variants, so
	// the deduped space is exactly:
	rotations := 0
	if cfg.Rotations {
		rotations = rotationSide(cfg.Guest) + rotationSide(cfg.Host)
	}
	space := 0
	midrots := make([][][]int, len(cfg.Strategies))
	for si := range cfg.Strategies {
		midrots[si] = midRotations(cfg, si)
		space += len(gps)*len(hps) + rotations + len(midrots[si])
	}

	all := make([]variantSpec, 0, min(cfg.Budget, space))
	seen := map[string]bool{}
	full := func() bool { return len(all) >= cfg.Budget }
	add := func(v variantSpec) {
		k := v.key()
		if seen[k] {
			return
		}
		seen[k] = true
		all = append(all, v)
	}
	norm := func(p perm.Perm) perm.Perm {
		if isIdentity(p) {
			return nil
		}
		return p
	}

	// Tier 0: every strategy at identity symmetries (baseline first).
	for si := range cfg.Strategies {
		if full() {
			return all, space
		}
		add(variantSpec{strategy: si})
	}
	// Tier 1: host axis permutations — the congestion lever that keeps
	// dilation intact.
	for si := range cfg.Strategies {
		for _, hp := range hps {
			if full() {
				return all, space
			}
			add(variantSpec{strategy: si, hperm: norm(hp)})
		}
	}
	// Tier 2: guest axis permutations — changes the construction
	// variant, hence possibly the dilation too.
	for si := range cfg.Strategies {
		for _, gp := range gps {
			if full() {
				return all, space
			}
			add(variantSpec{strategy: si, gperm: norm(gp)})
		}
	}
	// Tier 3: single-axis digit rotations, mesh sides only (torus
	// rotations are metric-invariant automorphisms).
	if cfg.Rotations {
		for si := range cfg.Strategies {
			if cfg.Guest.Kind == grid.Mesh {
				for j, l := range cfg.Guest.Shape {
					for _, r := range rotOffsets(l) {
						if full() {
							return all, space
						}
						rot := make([]int, cfg.Guest.Dim())
						rot[j] = r
						add(variantSpec{strategy: si, grot: rot})
					}
				}
			}
			if cfg.Host.Kind == grid.Mesh {
				for j, l := range cfg.Host.Shape {
					for _, r := range rotOffsets(l) {
						if full() {
							return all, space
						}
						rot := make([]int, cfg.Host.Dim())
						rot[j] = r
						add(variantSpec{strategy: si, hrot: rot})
					}
				}
			}
		}
	}
	// Tier 4: rotations of each strategy's intermediate stage —
	// genuinely new base embeddings, not symmetry variants of old ones.
	for si := range cfg.Strategies {
		for _, rot := range midrots[si] {
			if full() {
				return all, space
			}
			add(variantSpec{strategy: si, midrot: rot})
		}
	}
	// Tier 5: the guest × host permutation cross product.
	for si := range cfg.Strategies {
		for _, gp := range gps {
			for _, hp := range hps {
				if full() {
					return all, space
				}
				add(variantSpec{strategy: si, gperm: norm(gp), hperm: norm(hp)})
			}
		}
	}
	return all, space
}

// permutedHost returns the host the variant's construction targets: the
// axis-permuted host, or the host itself.
func permutedHost(h grid.Spec, hperm perm.Perm) grid.Spec {
	if hperm == nil {
		return h
	}
	return grid.Spec{Kind: h.Kind, Shape: grid.Shape(perm.Apply(hperm, h.Shape))}
}

// baseKey identifies the construction half of a variant: the strategy,
// the guest-side pre-symmetries, the mid rotation, and the permuted
// host shape the construction targets. Variants sharing a key share
// one constructed embedding.
func (v variantSpec) baseKey(hp grid.Spec) string {
	k := strconv.AppendInt(make([]byte, 0, 64), int64(v.strategy), 10)
	k = appendInts(appendInts(appendInts(k, v.gperm), v.grot), v.midrot)
	return string(appendInts(k, hp.Shape))
}

// buildBase constructs the cached half of a variant: guest rotation,
// guest permutation, then the strategy's construction into the permuted
// host (around a rotated intermediate for mid-rotation variants).
func buildBase(cfg *Config, v variantSpec, hp grid.Spec) (*embed.Embedding, error) {
	g := cfg.Guest
	var steps []*embed.Embedding
	if v.grot != nil {
		rot, err := embed.Rotate(g, v.grot)
		if err != nil {
			return nil, err
		}
		steps = append(steps, rot)
	}
	cur := g
	if v.gperm != nil {
		p, err := embed.Permute(cur, v.gperm, cur.Kind)
		if err != nil {
			return nil, err
		}
		steps = append(steps, p)
		cur = p.To
	}
	st := cfg.Strategies[v.strategy]
	var base *embed.Embedding
	var err error
	if v.midrot != nil {
		base, err = st.EmbedMidRot(cur, hp, v.midrot)
	} else {
		base, err = st.Embed(cur, hp)
	}
	if err != nil {
		return nil, err
	}
	steps = append(steps, base)
	return embed.ComposeAll(steps...)
}

// postParts returns the host-side relabeling of a variant — the
// permutation back from the permuted host, then the host rotation — as
// one embedding of the host onto itself, or nil for the identity. Both
// symmetries are disjoint digit kernels, so they compile into one.
func postParts(cfg *Config, v variantSpec) (*embed.Embedding, error) {
	h := cfg.Host
	var post *embed.Embedding
	if v.hperm != nil {
		hp := permutedHost(h, v.hperm)
		back, err := embed.Permute(hp, perm.Perm(v.hperm).Inverse(), h.Kind)
		if err != nil {
			return nil, err
		}
		if !back.To.Shape.Equal(h.Shape) {
			return nil, fmt.Errorf("place: internal error: host permutation %v does not invert for %s", v.hperm, h)
		}
		post = back
	}
	if v.hrot != nil {
		rot, err := embed.Rotate(h, v.hrot)
		if err != nil {
			return nil, err
		}
		if post == nil {
			return rot, nil
		}
		return embed.Compose(post, rot)
	}
	return post, nil
}

// buildVariant constructs the composite embedding of one variant from
// scratch — the uncached reference builder. The searcher's cached
// build path must produce rank-identical embeddings (pinned by
// TestCachedBuildMatchesReference); tests and one-off callers use this
// form. Every step is injective, so the composition is; Search
// verifies the baseline and the winner as a safety net.
func buildVariant(cfg *Config, v variantSpec) (*embed.Embedding, error) {
	hp := permutedHost(cfg.Host, v.hperm)
	base, err := buildBase(cfg, v, hp)
	if err != nil {
		return nil, err
	}
	if v.hperm == nil && v.hrot == nil {
		return base, nil
	}
	post, err := postParts(cfg, v)
	if err != nil {
		return nil, err
	}
	return embed.PostCompose(base, post, base.Strategy+" ∘ "+post.Strategy, 0)
}
