package percept

import (
	"errors"
	"fmt"

	"nvrel/internal/des"
	"nvrel/internal/nvp"
	"nvrel/internal/voter"
)

// HeteroConfig configures the identity-tracking simulator: unlike the main
// simulator (which tracks only population counts), it follows each module
// version individually, so versions can carry their own healthy error
// rates. It exists to validate the subset-averaging assumption of
// reliability.Heterogeneous: because the lifecycle dynamics treat all
// modules exchangeably, the time-average over which subset is healthy
// equals the uniform subset average the analytic model uses.
type HeteroConfig struct {
	// Params supplies the lifecycle timing, scheme, and compromised error
	// probability (PPrime); the scalar P and Alpha are ignored.
	Params nvp.Params
	// HealthyErr is each version's error probability while healthy
	// (length N). Errors are sampled independently per module.
	HealthyErr []float64
	// Horizon, WarmUp, RequestInterval as in Config.
	Horizon, WarmUp, RequestInterval float64
}

// Validate checks the configuration.
func (c HeteroConfig) Validate() error {
	var errs []error
	if err := c.Params.Validate(false); err != nil {
		errs = append(errs, err)
	}
	if len(c.HealthyErr) != c.Params.N {
		errs = append(errs, fmt.Errorf("percept: %d healthy error rates for %d versions", len(c.HealthyErr), c.Params.N))
	}
	for i, p := range c.HealthyErr {
		if p < 0 || p > 1 || p != p {
			errs = append(errs, fmt.Errorf("percept: version %d error rate %g outside [0,1]", i, p))
		}
	}
	errs = append(errs, finiteTimes(c.Horizon, c.WarmUp, c.RequestInterval)...)
	if c.Horizon <= 0 || c.WarmUp < 0 || c.WarmUp >= c.Horizon {
		errs = append(errs, fmt.Errorf("percept: bad window [%g, %g]", c.WarmUp, c.Horizon))
	}
	if c.RequestInterval <= 0 {
		errs = append(errs, errors.New("percept: hetero simulation needs request sampling"))
	}
	return errors.Join(errs...)
}

// moduleHealth is a per-module lifecycle position.
type moduleHealth int

const (
	healthHealthy moduleHealth = iota + 1
	healthCompromised
	healthFailed
)

// heteroSystem simulates the no-rejuvenation architecture with per-module
// identity.
type heteroSystem struct {
	cfg   HeteroConfig
	rng   *des.RNG
	sim   des.Simulation
	state []moduleHealth
	rule  voter.CountRule

	// Timer slots re-armed in place, and their actions bound once.
	compromiseEv, failEv, repairEv, requestEv     des.Handle
	compromiseAct, failAct, repairAct, requestAct des.Action

	correct   []bool // per-request buffer, capacity N
	measuring bool
	tally     voter.Tally
}

// RunHeterogeneous simulates the no-rejuvenation architecture with
// per-version error rates and returns the request tally.
func RunHeterogeneous(cfg HeteroConfig, rng *des.RNG) (voter.Tally, error) {
	if err := cfg.Validate(); err != nil {
		return voter.Tally{}, err
	}
	if rng == nil {
		return voter.Tally{}, errors.New("percept: nil rng")
	}
	rule, err := voter.NewCountRule(cfg.Params.Scheme().Threshold())
	if err != nil {
		return voter.Tally{}, err
	}
	h := &heteroSystem{
		cfg:     cfg,
		rng:     rng,
		state:   make([]moduleHealth, cfg.Params.N),
		rule:    rule,
		correct: make([]bool, 0, cfg.Params.N),
	}
	h.compromiseAct = func() { h.move(healthHealthy, healthCompromised) }
	h.failAct = func() { h.move(healthCompromised, healthFailed) }
	h.repairAct = func() { h.move(healthFailed, healthHealthy) }
	h.requestAct = h.onRequest
	for i := range h.state {
		h.state[i] = healthHealthy
	}
	h.reschedule()
	h.scheduleRequest()
	if _, err := h.sim.Schedule(cfg.WarmUp, func() { h.measuring = true }); err != nil {
		return voter.Tally{}, err
	}
	if err := h.sim.RunUntil(cfg.Horizon); err != nil {
		return voter.Tally{}, err
	}
	return h.tally, nil
}

// pick returns a uniformly random module index in the given health state,
// or -1 when none exists. It draws once, k uniform over the matches, and
// walks to the k-th.
func (h *heteroSystem) pick(want moduleHealth) int {
	n := h.count(want)
	if n == 0 {
		return -1
	}
	k := h.rng.Intn(n)
	for i, st := range h.state {
		if st != want {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	panic("percept: pick walked past its count")
}

func (h *heteroSystem) count(want moduleHealth) int {
	n := 0
	for _, st := range h.state {
		if st == want {
			n++
		}
	}
	return n
}

// reschedule re-draws the single-server lifecycle timers (memoryless
// resampling, as in the main simulator).
func (h *heteroSystem) reschedule() {
	p := h.cfg.Params
	h.rearmIf(&h.compromiseEv, healthHealthy, p.MeanTimeToCompromise, h.compromiseAct)
	h.rearmIf(&h.failEv, healthCompromised, p.MeanTimeToFailure, h.failAct)
	h.rearmIf(&h.repairEv, healthFailed, p.MeanTimeToRepair, h.repairAct)
}

// rearmIf re-arms ev with an exponential delay of the given mean while some
// module is in state from, and cancels it otherwise.
func (h *heteroSystem) rearmIf(ev *des.Handle, from moduleHealth, mean float64, action des.Action) {
	if h.count(from) == 0 {
		ev.Cancel()
		return
	}
	h.must(ev, h.rng.Exp(mean), action)
}

// move transitions a uniformly chosen module between health states.
func (h *heteroSystem) move(from, to moduleHealth) {
	if i := h.pick(from); i >= 0 {
		h.state[i] = to
	}
	h.reschedule()
}

func (h *heteroSystem) scheduleRequest() {
	h.must(&h.requestEv, h.rng.Exp(h.cfg.RequestInterval), h.requestAct)
}

func (h *heteroSystem) onRequest() {
	if h.measuring {
		h.correct = h.correct[:0]
		for i, st := range h.state {
			switch st {
			case healthHealthy:
				h.correct = append(h.correct, !h.rng.Bernoulli(h.cfg.HealthyErr[i]))
			case healthCompromised:
				h.correct = append(h.correct, !h.rng.Bernoulli(h.cfg.Params.PPrime))
			}
		}
		h.tally.Record(h.rule.Classify(h.correct))
	}
	h.scheduleRequest()
}

func (h *heteroSystem) must(ev *des.Handle, delay float64, action des.Action) {
	if err := h.sim.Rearm(ev, delay, action); err != nil {
		panic(fmt.Sprintf("percept: internal scheduling error: %v", err))
	}
}
