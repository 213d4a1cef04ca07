package percept

import (
	"fmt"

	"nvrel/internal/des"
	"nvrel/internal/nvp"
	"nvrel/internal/voter"
)

// rescheduleLifecycle re-draws the three lifecycle timers (compromise,
// failure, repair) for the current population. Because all firing times
// are exponential, resampling on every state change is statistically
// identical to keeping the clocks running (memorylessness) and matches the
// race semantics of the underlying CTMC exactly, for both single-server
// and per-token semantics.
func (s *System) rescheduleLifecycle() {
	p := s.cfg.Params

	switch a := s.cfg.Attacker; {
	case s.healthy == 0:
		s.compromiseEv.Cancel()
	case a != nil:
		rate := a.OffRate
		if s.attackOn {
			rate = a.OnRate
		}
		if rate > 0 {
			s.mustRearm(&s.compromiseEv, s.rng.Exp(1/rate), s.act.compromise)
		} else {
			s.compromiseEv.Cancel()
		}
	default:
		s.mustRearm(&s.compromiseEv, s.lifecycleDelay(p.MeanTimeToCompromise, s.healthy), s.act.compromise)
	}

	if s.compromised > 0 {
		s.mustRearm(&s.failEv, s.lifecycleDelay(p.MeanTimeToFailure, s.compromised), s.act.fail)
	} else {
		s.failEv.Cancel()
	}

	if s.failed > 0 {
		s.mustRearm(&s.repairEv, s.lifecycleDelay(p.MeanTimeToRepair, s.failed), s.act.repair)
	} else {
		s.repairEv.Cancel()
	}

	// The rejuvenation-completion rate is marking dependent
	// (1/(base x #Pmr)); resample it too.
	if s.rejuvenating > 0 {
		mean := p.MeanTimeToRejuvenate * float64(s.rejuvenating)
		s.mustRearm(&s.rejuvDoneEv, s.rng.Exp(mean), s.act.rejuvDone)
	} else {
		s.rejuvDoneEv.Cancel()
	}
}

// lifecycleDelay draws the next firing delay under the configured server
// semantics.
func (s *System) lifecycleDelay(mean float64, tokens int) float64 {
	if s.cfg.Params.Semantics == nvp.PerToken {
		return s.rng.Exp(mean / float64(tokens))
	}
	return s.rng.Exp(mean)
}

func (s *System) onCompromise() {
	if s.healthy == 0 {
		return
	}
	s.healthy--
	s.compromised++
	s.observe("module compromised")
	s.noteStateChange()
	s.afterTransition()
}

func (s *System) onFailure() {
	if s.compromised == 0 {
		return
	}
	s.compromised--
	s.failed++
	s.observe("module failed")
	s.noteStateChange()
	s.afterTransition()
}

func (s *System) onRepair() {
	if s.failed == 0 {
		return
	}
	s.failed--
	s.healthy++
	s.observe("module repaired")
	s.noteStateChange()
	s.afterTransition()
}

// onRejuvenationDone completes the whole in-flight batch (the net's Trj
// consumes min(#Pmr, r) tokens and returns them to Pmh; #Pmr never exceeds
// r).
func (s *System) onRejuvenationDone() {
	if s.rejuvenating == 0 {
		return
	}
	s.healthy += s.rejuvenating
	s.rejuvenating = 0
	s.observe("rejuvenation complete")
	s.noteStateChange()
	s.afterTransition()
}

// afterTransition dispatches any parked rejuvenation tokens whose guard
// became true, re-arms a waiting clock, and resamples the lifecycle
// timers.
func (s *System) afterTransition() {
	s.dispatchWave()
	s.maybeRestartClock()
	s.rescheduleLifecycle()
}

// scheduleAttackPhaseFlip arms the attacker's next phase change.
func (s *System) scheduleAttackPhaseFlip() {
	a := s.cfg.Attacker
	if a == nil {
		return
	}
	mean := a.MeanTimeOff
	if s.attackOn {
		mean = a.MeanTimeOn
	}
	s.mustRearm(&s.attackPhaseEv, s.rng.Exp(mean), s.act.attackFlip)
}

// onAttackPhaseFlip toggles the attacker's phase and re-arms both the
// next flip and the phase-dependent compromise timer.
func (s *System) onAttackPhaseFlip() {
	s.attackOn = !s.attackOn
	if s.attackOn {
		s.observe("attack campaign started")
	} else {
		s.observe("attack campaign ended")
	}
	s.scheduleAttackPhaseFlip()
	s.rescheduleLifecycle()
}

// armClock arms the deterministic rejuvenation clock (Trc) one interval
// ahead.
func (s *System) armClock() {
	s.mustRearm(&s.clockEv, s.cfg.Params.RejuvenationInterval, s.act.clock)
}

// onClockTick implements Tac + Trt: if no wave is in flight, dispatch r
// activation tokens (which Trj1/Trj2 consume immediately when guard g2
// holds, or park otherwise). Under the free-running policy the clock
// restarts immediately; under the waits-for-wave policy it restarts when
// the wave drains (see maybeRestartClock).
func (s *System) onClockTick() {
	s.observe("rejuvenation clock tick")
	if s.parked == 0 && s.rejuvenating == 0 {
		s.parked = s.cfg.Params.R
		s.dispatchWave()
		s.rescheduleLifecycle()
	}
	if s.cfg.Params.Clock == nvp.ClockWaitsForWave {
		s.clockWaiting = true
		s.maybeRestartClock()
		return
	}
	s.armClock()
}

// maybeRestartClock re-arms a waiting clock once the rejuvenation wave has
// fully drained (no parked tokens, no module rejuvenating).
func (s *System) maybeRestartClock() {
	if !s.clockWaiting || s.parked > 0 || s.rejuvenating > 0 {
		return
	}
	s.clockWaiting = false
	s.armClock()
}

// dispatchWave moves modules into rejuvenation while activation tokens are
// parked and the guard g2 (#failed + #rejuvenating < r) holds, choosing a
// compromised module with probability j/(i+j) (weights w1/w2: the system
// cannot distinguish healthy from compromised modules).
func (s *System) dispatchWave() {
	r := s.cfg.Params.R
	changed := false
	for s.parked > 0 && s.failed+s.rejuvenating < r && s.healthy+s.compromised > 0 {
		total := s.healthy + s.compromised
		if s.rng.Float64() < float64(s.compromised)/float64(total) {
			s.compromised--
		} else {
			s.healthy--
		}
		s.rejuvenating++
		s.parked--
		changed = true
	}
	if changed {
		s.observe("rejuvenation wave dispatched")
		s.noteStateChange()
	}
}

// scheduleNextRequest arms the Poisson perception-request stream.
func (s *System) scheduleNextRequest() {
	s.mustRearm(&s.requestEv, s.rng.Exp(s.cfg.RequestInterval), s.act.request)
}

// onRequest samples one perception request. Without label voting the
// operational modules' correctness flags feed the counting rule; with
// label voting enabled each module outputs a class label, every label
// scheme decides into its own tally, and the counting rule is tallied from the same sample so both
// views stay comparable. Samples land in the System's reused buffers.
func (s *System) onRequest() {
	if s.measuring {
		if s.labelSchemes != nil {
			truth := s.rng.Intn(s.cfg.Classes)
			labels, err := s.errModel.SampleLabelsInto(s.labels,
				s.rng, truth, s.cfg.Classes, s.healthy, s.compromised, s.cfg.wrongLabelPolicy())
			if err != nil {
				panic(fmt.Sprintf("percept: label sampling: %v", err))
			}
			s.labels = labels
			for k, scheme := range s.labelSchemes {
				s.labelTallies[k].Record(voter.ClassifyDecision(scheme.Decide(labels), truth))
			}
			s.correct = s.correct[:0]
			for _, l := range labels {
				s.correct = append(s.correct, l == truth)
			}
		} else {
			s.correct = s.errModel.SampleCorrectnessInto(s.correct, s.rng, s.healthy, s.compromised)
		}
		s.tally.Record(s.rule.Classify(s.correct))
		s.requests++
	}
	s.scheduleNextRequest()
}

// observe emits a trace line if an observer is configured.
func (s *System) observe(event string) {
	if s.cfg.Observer != nil {
		s.cfg.Observer(s.sim.Now(), fmt.Sprintf("%s (H=%d C=%d F=%d R=%d)",
			event, s.healthy, s.compromised, s.failed, s.rejuvenating))
	}
}

// mustRearm wraps Rearm for delays we generate ourselves.
func (s *System) mustRearm(h *des.Handle, delay float64, action des.Action) {
	if err := s.sim.Rearm(h, delay, action); err != nil {
		panic(fmt.Sprintf("percept: internal scheduling error: %v", err))
	}
}
