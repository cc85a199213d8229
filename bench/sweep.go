package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/core"
	"torusmesh/internal/grid"
)

// sweepLoad times whole census.Run passes over every ordered pair of one
// size with the metrics and congestion passes on. Construction (embed,
// core) and the verify, dilation and congestion passes (grid, netsim) do
// nearly all of the work; place, driver and serve do none.
type sweepLoad struct {
	sc   scale
	cfg  census.Config
	want [sha256.Size]byte // artifact hash of the first pass
	last *census.Census
}

func sweepConfig(n, maxDim int) census.Config {
	return census.Config{
		Size:       n,
		MaxDim:     maxDim,
		Shapes:     catalog.CanonicalShapesOfSize(n, maxDim),
		Metrics:    true,
		Congestion: true,
		Embed:      core.Embed,
	}
}

func (w *sweepLoad) setup() error {
	if _, err := census.Run(sweepConfig(w.sc.sweepWarm, w.sc.sweepMaxDim)); err != nil {
		return fmt.Errorf("sweep warm-up: %v", err)
	}
	w.cfg = sweepConfig(w.sc.sweepSize, w.sc.sweepMaxDim)
	return nil
}

func (w *sweepLoad) measure(window time.Duration, tr *tracer) (*sample, error) {
	s := &sample{}
	for end, pass := time.Now().Add(window), 0; pass == 0 || time.Now().Before(end); pass++ {
		cfg := w.cfg
		var id int64
		if tr != nil {
			id = tr.newID()
			o := newOrphans()
			cfg.Embed = tr.censusEmbed(cfg.Embed, o)
			cfg.OnResult = func(r *census.PairResult) { tr.pairDone(r, id, o) }
		}
		start := time.Now()
		c, err := census.Run(cfg)
		stop := time.Now()
		if err != nil {
			return nil, fmt.Errorf("sweep: %v", err)
		}
		if tr != nil {
			tr.record(id, 0, censusRun, start, stop)
		}
		s.jobs = append(s.jobs, stop.Sub(start))
		for i := range c.Results {
			s.ops = append(s.ops, c.Results[i].Wall)
		}
		s.attempted += c.SpacePairs
		if err := w.verify(c); err != nil {
			logf("sweep pass %d: %v", pass, err)
			s.failed += c.SpacePairs
		}
		w.last = c
	}
	s.perSec = float64(w.last.SpacePairs) / quantile(s.jobs, 0.5).Seconds()
	return s, nil
}

// verify checks one pass: every pair present, none failing verification,
// and the artifact byte-identical to the first pass's.
func (w *sweepLoad) verify(c *census.Census) error {
	if c.Pairs != c.SpacePairs {
		return fmt.Errorf("%d of %d pairs present", c.Pairs, c.SpacePairs)
	}
	if c.VerifyFailures > 0 {
		return fmt.Errorf("%d verification failures", c.VerifyFailures)
	}
	return sameArtifact(c, &w.want)
}

// sameArtifact compares the census's artifact hash with *want, adopting
// it when *want is still unset.
func sameArtifact(c *census.Census, want *[sha256.Size]byte) error {
	data, err := c.EncodeBytes()
	if err != nil {
		return err
	}
	return sameBytes(data, want)
}

func sameBytes(data []byte, want *[sha256.Size]byte) error {
	sum := sha256.Sum256(data)
	if *want == ([sha256.Size]byte{}) {
		*want = sum
	} else if sum != *want {
		return fmt.Errorf("artifact differs from the first one")
	}
	return nil
}

func (w *sweepLoad) check(*sample) error { return nil }

func (w *sweepLoad) layers(tr *tracer, m, diag map[string]float64) ([]netsimCase, error) {
	censusCounts(w.last, m)
	m["embed.constructs"] = tr.perUnit(embedConstruct, censusRun)
	pairTimes := tr.durations(censusPair)
	diag["census.pair_us_p50"] = us(quantile(pairTimes, 0.5))
	diag["census.pair_us_p99"] = us(quantile(pairTimes, 0.99))
	return baselineCases(censusPairs(&w.cfg))
}

// censusCounts fills the census layer's counts from one pass.
func censusCounts(c *census.Census, m map[string]float64) {
	m["census.pairs"] = float64(c.Pairs)
	m["census.embeddable"] = float64(c.Embeddable)
	m["census.construct_failures"] = float64(c.ConstructFailures)
	m["census.verify_failures"] = float64(c.VerifyFailures)
}

// censusPairs lists a census config's pair space in enumeration order.
func censusPairs(cfg *census.Config) [][2]grid.Spec {
	specs := cfg.Specs()
	out := make([][2]grid.Spec, 0, len(specs)*len(specs))
	for _, g := range specs {
		for _, h := range specs {
			out = append(out, [2]grid.Spec{g, h})
		}
	}
	return out
}

func (w *sweepLoad) close() {}

// artifactDigest is the hash every pass's artifact must equal.
func (w *sweepLoad) artifactDigest() [sha256.Size]byte { return w.want }
