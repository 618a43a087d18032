package partition

import (
	"reflect"
	"testing"

	"lancet/internal/netsim"
)

// hint_test.go pins that the deprecated Options.Hint steers nothing: a
// hinted run is the cold run, ranges, prices and evaluation count alike,
// because the DP sweeps every k of every window (DESIGN.md §14).

// runPair runs the pass cold and hinted under the same options and asserts
// the results are identical.
func runPair(t *testing.T, opts Options, hint []Range) {
	t.Helper()
	b, cm := buildFixture(t)
	coldRes, err := Run(b.Graph, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	hopts := opts
	hopts.Hint = hint
	if hint == nil {
		hopts.Hint = coldRes.Ranges
	}
	warmRes, err := Run(b.Graph, cm, hopts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRes.Ranges, warmRes.Ranges) {
		t.Errorf("hinted ranges %v differ from cold %v", rangeSummary(warmRes), rangeSummary(coldRes))
	}
	if coldRes.ForwardUs != warmRes.ForwardUs || coldRes.SerialForwardUs != warmRes.SerialForwardUs {
		t.Errorf("hinted forward %v (serial %v) us differs from cold %v (%v) us",
			warmRes.ForwardUs, warmRes.SerialForwardUs, coldRes.ForwardUs, coldRes.SerialForwardUs)
	}
	if warmRes.Evaluations != coldRes.Evaluations {
		t.Errorf("hinted run spent %d evaluations, cold %d", warmRes.Evaluations, coldRes.Evaluations)
	}
}

func TestWarmStartPropertyAcrossOptionGrid(t *testing.T) {
	g := 16 // buildFixture's V100Cluster(2) GPU count
	grid := []Options{
		{},
		{MaxPartitions: 4},
		{MaxPartitions: 16, GroupUs: 1000},
		{GatePartialBatch: true},
		{Profile: netsim.UniformProfile(g), PayloadFraction: 0.5},
		{Profile: netsim.ZipfProfile(g, 2.0), PayloadFraction: 0.5},
	}
	for _, opts := range grid {
		runPair(t, opts, nil) // self-hint
	}
}

func TestWarmStartGarbageHintHarmless(t *testing.T) {
	for _, hint := range [][]Range{
		{{Start: 0, End: 2, K: 99}},                          // k beyond any window's kmax
		{{Start: 0, End: 1 << 20, K: 3}},                     // covers everything
		{{Start: 5, End: 4, K: 2}},                           // inverted range
		{{Start: 0, End: 0, K: 2}, {Start: 1, End: 1, K: 8}}, // conflicting fragments
		{{Start: 1 << 19, End: 1 << 20, K: 4}},               // overlaps nothing
	} {
		runPair(t, Options{}, hint)
	}
}

func TestWarmStartCrossConfigurationHint(t *testing.T) {
	// One configuration hinted with another's chosen plan.
	b, cm := buildFixture(t)
	donor, err := Run(b.Graph, cm, Options{MaxPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	runPair(t, Options{}, donor.Ranges)
}
