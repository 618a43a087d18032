package experiments

import (
	"fmt"

	"lancet"
)

// blindVsAware is the shared driver of the blind-vs-aware experiments
// (skew_planning, topology_planning, hetero_planning and
// multi_job_contention; DESIGN.md §8). It plans sess with opts twice, once
// against the view that view derives from reality and once against reality
// itself, and replays both plans on the session's real cluster and traffic
// (mean of 3 seeds): the gap is what the knowledge the view erases buys. It
// returns the row every such table shares — label, blind and aware
// iteration times, pipeline counts (blind/aware) and speedup — plus the
// aware replay for the columns one table adds.
func blindVsAware(sess *lancet.Session, opts lancet.Options, view func(lancet.View) lancet.View, label string) ([]string, *lancet.ReportStats, error) {
	blindOpts := opts
	blindOpts.View = view
	blind, err := sess.Lancet(blindOpts)
	if err != nil {
		return nil, nil, err
	}
	aware, err := sess.Lancet(opts)
	if err != nil {
		return nil, nil, err
	}
	rb, err := blind.SimulateN(3, 17)
	if err != nil {
		return nil, nil, err
	}
	ra, err := aware.SimulateN(3, 17)
	if err != nil {
		return nil, nil, err
	}
	return []string{label,
		fmt.Sprintf("%.1f", rb.MeanMs),
		fmt.Sprintf("%.1f", ra.MeanMs),
		fmt.Sprintf("%d/%d", len(blind.Pipelines), len(aware.Pipelines)),
		fmt.Sprintf("%.3fx", rb.MeanMs/ra.MeanMs)}, ra, nil
}
