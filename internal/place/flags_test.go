package place

import (
	"flag"
	"reflect"
	"testing"

	"torusmesh/internal/grid"
)

// TestBindFlags pins the search flag set place and placed share: its
// defaults, that every flag reaches its Config field, and the refusal
// of annealing knobs without -anneal.
func TestBindFlags(t *testing.T) {
	parse := func(args ...string) (Config, error) {
		fs := flag.NewFlagSet("place", flag.ContinueOnError)
		build := BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parsing %q: %v", args, err)
		}
		return build()
	}
	cfg, err := parse()
	want := Config{CapDilation: true, Rotations: true, Strategies: DefaultStrategies()}
	if err != nil || cfg.Spec() != want.Spec() {
		t.Errorf("no flags give spec %q (err %v), want %q", cfg.Spec(), err, want.Spec())
	}

	cfg, err = parse("-objective", "2,3,0.5", "-budget", "7", "-cap=false", "-rotations=false",
		"-anneal", "-anneal-steps", "99", "-anneal-moves", "all", "-seed", "11")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategies = nil // DefaultStrategies holds funcs, which DeepEqual cannot compare
	want = Config{Objective: Objective{Alpha: 2, Beta: 3, Gamma: 0.5}, Budget: 7,
		Anneal: true, AnnealSteps: 99, AnnealMoves: AnnealMovesAll, Seed: 11}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("non-default flags give %+v, want %+v", cfg, want)
	}

	if _, err := parse("-seed", "7"); err == nil ||
		err.Error() != "-seed, -anneal-steps and -anneal-moves require -anneal" {
		t.Errorf("-seed without -anneal: err = %v", err)
	}
}

// TestSpecMatchesValidatedConfig: the spec token census shards,
// journals and the placed cache are keyed on renders the config a
// search runs — the one validate leaves after applying its defaults.
func TestSpecMatchesValidatedConfig(t *testing.T) {
	for _, cfg := range []Config{{}, {Anneal: true}} {
		cfg.Guest, cfg.Host, cfg.Strategies = grid.RingSpec(6), grid.MeshSpec(3, 2), DefaultStrategies()
		validated := cfg
		if err := validated.validate(); err != nil {
			t.Fatal(err)
		}
		if got, want := cfg.Spec(), validated.Spec(); got != want {
			t.Errorf("Spec %q, but the validated config's is %q", got, want)
		}
	}
}
