package lancet

import "lancet/internal/sim"

// SimulateTraced runs the iteration Simulate(seed) reports and returns its
// timeline, spans included, for the external tests.
func (p *Plan) SimulateTraced(seed int64) (*sim.Timeline, error) {
	ex, err := p.executor(seed)
	if err != nil {
		return nil, err
	}
	return ex.RunTraced(p.Graph)
}
