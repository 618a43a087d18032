package partition

import (
	"testing"

	"lancet/internal/netsim"
)

// warmstart_test.go pins Options.Hint on the test fixture (DESIGN.md §14):
// there a hint changes neither the chosen plan nor its costs, never costs
// evaluations beyond a cold run, and a good hint saves measurably. This
// holds for the fixture's windows, not for every graph: where a window's
// span-vs-k curve has a strict local minimum that is not its argmin, a
// hint at that minimum changes the plan.

// runPair runs the pass cold and hinted under the same options and asserts
// the results are identical; it returns the two evaluation counts.
func runPair(t *testing.T, opts Options, hint []Range) (cold, warm int) {
	t.Helper()
	b, cm := buildFixture(t)
	coldRes, err := Run(b.Graph, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	hopts := opts
	if hint == nil {
		hint = coldRes.Ranges // self-hint: the best possible warm start
	}
	hopts.Hint = hint
	warmRes, err := Run(b.Graph, cm, hopts)
	if err != nil {
		t.Fatal(err)
	}
	if a, bb := rangeSummary(coldRes), rangeSummary(warmRes); !equalRanges(a, bb) {
		t.Errorf("hinted ranges %v differ from cold %v", bb, a)
	}
	if coldRes.ForwardUs != warmRes.ForwardUs {
		t.Errorf("hinted forward %v us differs from cold %v us", warmRes.ForwardUs, coldRes.ForwardUs)
	}
	if coldRes.SerialForwardUs != warmRes.SerialForwardUs {
		t.Errorf("hinted serial forward %v us differs from cold %v us",
			warmRes.SerialForwardUs, coldRes.SerialForwardUs)
	}
	for i := range coldRes.Ranges {
		if i < len(warmRes.Ranges) && coldRes.Ranges[i].PredictedUs != warmRes.Ranges[i].PredictedUs {
			t.Errorf("range %d: hinted predicted %v us differs from cold %v us",
				i, warmRes.Ranges[i].PredictedUs, coldRes.Ranges[i].PredictedUs)
		}
	}
	if warmRes.Evaluations > coldRes.Evaluations {
		t.Errorf("hinted run spent %d evaluations, cold spent %d — a hint must never cost extra",
			warmRes.Evaluations, coldRes.Evaluations)
	}
	return coldRes.Evaluations, warmRes.Evaluations
}

func TestWarmStartSelfHintIdenticalAndCheaper(t *testing.T) {
	cold, warm := runPair(t, Options{}, nil)
	// The acceptance claim: warm-starting from the run's own chosen plan
	// must certify at least some windows and skip their full k sweeps.
	if warm >= cold {
		t.Errorf("self-hinted run spent %d evaluations, cold spent %d — want measurably fewer", warm, cold)
	} else {
		t.Logf("cold %d evaluations, self-hinted %d", cold, warm)
	}
}

func TestWarmStartPropertyAcrossOptionGrid(t *testing.T) {
	// Byte-identity and evaluations <= cold must hold across the option
	// space, not just the defaults — the property the sweep chainer relies
	// on when it threads hints between grid points that plan differently.
	g := 16 // buildFixture's V100Cluster(2) GPU count
	grid := []Options{
		{},
		{MaxPartitions: 4},
		{MaxPartitions: 16, GroupUs: 1000},
		{GatePartialBatch: true},
		{Profile: netsim.UniformProfile(g), PayloadFraction: 0.5},
		{Profile: netsim.ZipfProfile(g, 2.0), PayloadFraction: 0.5},
	}
	for i, opts := range grid {
		cold, warm := runPair(t, opts, nil)
		t.Logf("options %d: cold %d evaluations, self-hinted %d", i, cold, warm)
	}
}

func TestWarmStartGarbageHintHarmless(t *testing.T) {
	// A stale, mismatched or outright absurd hint may waste its probes but
	// must not change the plan or exceed the cold evaluation count.
	hints := [][]Range{
		{{Start: 0, End: 2, K: 99}},                          // k beyond any window's kmax
		{{Start: 0, End: 1 << 20, K: 3}},                     // covers everything
		{{Start: 5, End: 4, K: 2}},                           // inverted range
		{{Start: 0, End: 0, K: 2}, {Start: 1, End: 1, K: 8}}, // conflicting fragments
		{{Start: 1 << 19, End: 1 << 20, K: 4}},               // overlaps nothing
	}
	for i, hint := range hints {
		cold, warm := runPair(t, Options{}, hint)
		t.Logf("garbage hint %d: cold %d evaluations, hinted %d", i, cold, warm)
	}
}

func TestWarmStartCrossConfigurationHint(t *testing.T) {
	// The sweep chainer's actual use: hint one configuration's DP with a
	// *different* configuration's chosen plan. The hint may win or lose per
	// window; either way results match the cold run of the target config.
	b, cm := buildFixture(t)
	donor, err := Run(b.Graph, cm, Options{MaxPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, warm := runPair(t, Options{}, donor.Ranges)
	t.Logf("cross-config hint: cold %d evaluations, hinted %d", cold, warm)
}
