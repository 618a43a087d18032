package lancet

import "lancet/internal/netsim"

// View is what the optimization passes price against: a cluster and the
// routing profile of its traffic (DESIGN.md §8). By default it is reality,
// the session's own cluster and workload profile. Options.View derives a
// different one to measure what a piece of knowledge buys; simulation
// always replays reality. Profile is nil for a balanced workload, which
// every consumer prices with the closed-form uniform model.
type View struct {
	Cluster Cluster
	Profile *netsim.RoutingProfile
}

// Flat is the topology-blind view: the fabric priced flat, with no racks
// and no oversubscribed or shared spine (DESIGN.md §11). It is the
// identity on a flat cluster.
func (v View) Flat() View {
	v.Cluster = v.Cluster.Flat()
	return v
}

// UniformHardware is the hetero-blind view: every GPU priced as the
// fleet's base class, with the node layout and GPU count kept (DESIGN.md
// §12). It is the identity on a uniform fleet.
func (v View) UniformHardware() View {
	v.Cluster = v.Cluster.Uniform()
	return v
}

// SoleTenant is the contention-blind view: the spine priced as if this job
// owned it alone (DESIGN.md §17). It is the identity on an uncontended
// cluster, a Flat view included.
func (v View) SoleTenant() View {
	v.Cluster = v.Cluster.SoleTenant()
	return v
}

// UniformRouting is the skew-blind view: the routed volume kept, its shape
// spread uniformly over device pairs (DESIGN.md §10). It is the identity
// on a balanced workload.
func (v View) UniformRouting() View {
	if v.Profile != nil {
		v.Profile = netsim.UniformProfile(v.Profile.Devices())
	}
	return v
}
