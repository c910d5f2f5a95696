package main

import (
	"fmt"
	"math"

	"repro/internal/server"
)

// gateInput is everything the correctness gate judges a run by.
type gateInput struct {
	// refs tallies every /v1/reference response of the run.
	refs refTally
	// boot and end are /stats right after start-up (after any restore)
	// and after the load.
	boot, end server.StatsResponse
	// serialCSR is the cost-savings ratio of the serial partitioned
	// replay of the same references; csrBound the allowed distance.
	serialCSR, csrBound float64
	// scrapes tallies the operator's scrapes; every body must parse.
	scrapes opTally
	// writes tallies invalidations and snapshots.
	writes opTally
	// exits holds one entry per daemon shutdown: nil for exit status 0.
	exits []error
}

// checkGate returns the reasons the run is incorrect; none means it
// passed. A wrong payload, a count the daemon and the client disagree on,
// a cost-savings ratio off the serial replay, an unparsable scrape and an
// unclean shutdown each fail it.
func checkGate(in gateInput) []string {
	var bad []string
	if in.refs.mismatches > 0 {
		bad = append(bad, fmt.Sprintf("%d payloads differ from their query's token (first: %s)",
			in.refs.mismatches, in.refs.firstBad))
	}
	if got := in.end.References - in.boot.References; got != in.refs.acked {
		bad = append(bad, fmt.Sprintf("daemon counted %d references, the generator had %d acknowledged", got, in.refs.acked))
	}
	serverHits := (in.end.Hits + in.end.DerivedHits) - (in.boot.Hits + in.boot.DerivedHits)
	if serverHits != in.refs.hits {
		bad = append(bad, fmt.Sprintf("daemon counted %d hits, the client observed %d", serverHits, in.refs.hits))
	}
	if d := math.Abs(in.end.CostSavingsRatio - in.serialCSR); !(d <= in.csrBound) {
		bad = append(bad, fmt.Sprintf("daemon CSR %.4f is %.4f from the serial replay's %.4f (bound %.4f)",
			in.end.CostSavingsRatio, d, in.serialCSR, in.csrBound))
	}
	if in.scrapes.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d scrapes failed (first: %s)", in.scrapes.failed, in.scrapes.attempted, in.scrapes.firstBad))
	}
	if in.writes.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d invalidations/snapshots failed (first: %s)", in.writes.failed, in.writes.attempted, in.writes.firstBad))
	}
	for i, err := range in.exits {
		if err != nil {
			bad = append(bad, fmt.Sprintf("daemon %d: %v", i+1, err))
		}
	}
	return bad
}
