package sat

import (
	"sync/atomic"
	"time"

	"psketch/internal/obs"
)

// Observability wiring. A Solver (or every worker of a Portfolio)
// carries an optional tracer; with one attached, each solve emits a
// span with the solver-work deltas of that call (conflicts, decisions,
// propagations, restarts, learnt clauses, pool exchange). With no
// tracer the solve path is untouched — one nil check per Solve call.
//
// The span parent is plain state set between solves: solver ownership
// already alternates strictly (the CEGIS driver or the speculative
// goroutine, never both), and the portfolio repoints its workers before
// launching the race goroutines.

// SetTracer attaches tr (nil disables tracing). Call between solves.
func (s *Solver) SetTracer(tr *obs.Tracer) {
	s.tr = tr
	if s.spanName == "" {
		s.spanName = "sat.solve"
	}
}

// SetSpanParent sets the span the next solves nest under.
func (s *Solver) SetSpanParent(p obs.SpanID) { s.spanParent = p }

// SetTracer attaches tr to the portfolio and all its workers (nil
// disables tracing). Multi-worker solves emit a "sat.solve" span with
// one "sat.worker" child per racing worker; a 1-worker portfolio emits
// just the plain solver's "sat.solve".
func (p *Portfolio) SetTracer(tr *obs.Tracer) {
	p.tr = tr
	for _, w := range p.ws {
		w.tr = tr
		w.spanName = "sat.worker"
	}
	if len(p.ws) == 1 {
		p.ws[0].spanName = "sat.solve"
	}
}

// SetSpanParent sets the span the portfolio's next solves nest under.
func (p *Portfolio) SetSpanParent(sp obs.SpanID) {
	p.spanParent = sp
	if len(p.ws) == 1 {
		p.ws[0].spanParent = sp
	}
}

// SolveCancel2 is SolveCancel with two independent cancellation tokens
// (either one stops the search). The portfolio uses this to combine its
// internal race-winner token with an external caller token without an
// intermediary goroutine.
func (s *Solver) SolveCancel2(cancel, cancel2 *atomic.Bool, assumptions ...Lit) (sat, canceled bool) {
	if s.tr == nil {
		return s.solveCancel2(cancel, cancel2, assumptions...)
	}
	sp := s.tr.Start(s.spanName, s.spanParent)
	before := s.Stats
	t0 := time.Now()
	sat, canceled = s.solveCancel2(cancel, cancel2, assumptions...)
	sp.EndDur(time.Since(t0),
		obs.Int("worker", int64(s.sharedID)),
		obs.Int("sat", boolInt(sat)),
		obs.Int("canceled", boolInt(canceled)),
		obs.Int("conflicts", s.Stats.Conflicts-before.Conflicts),
		obs.Int("decisions", s.Stats.Decisions-before.Decisions),
		obs.Int("propagations", s.Stats.Propagations-before.Propagations),
		obs.Int("restarts", s.Stats.Restarts-before.Restarts),
		obs.Int("learned", s.Stats.Learned-before.Learned),
		obs.Int("exported", s.Stats.Exported-before.Exported),
		obs.Int("imported", s.Stats.Imported-before.Imported))
	return sat, canceled
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
