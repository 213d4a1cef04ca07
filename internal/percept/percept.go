// Package percept is an executable, event-level realization of the
// paper's perception system: N ML modules that are compromised by faults
// and attacks, fail, get repaired, and (in the rejuvenation architecture)
// are proactively rejuvenated by a deterministic clock, while a voter
// classifies a stream of perception requests.
//
// The simulator serves two purposes:
//
//   - cross-validation: its time-weighted state occupancy and analytic-
//     reward estimate must agree with the DSPN solvers (packages nvp,
//     ctmc, mrgp) within confidence bounds, which exercises the entire
//     analytic pipeline end to end;
//   - request-level realism: unlike the analytic models it produces actual
//     voted outputs from a generative error model (package mlsim), so the
//     effect of the approximations baked into the paper's closed-form
//     reliability functions can be measured.
package percept

import (
	"errors"
	"fmt"

	"nvrel/internal/des"
	"nvrel/internal/mlsim"
	"nvrel/internal/nvp"
	"nvrel/internal/reliability"
	"nvrel/internal/voter"
)

// Config configures a simulation run.
type Config struct {
	// Params carries the model parameters (Table II) including N, F, R,
	// the timing constants, and the server semantics.
	Params nvp.Params

	// Rejuvenation enables the clocked architecture of Figures 2(b)+(c).
	Rejuvenation bool

	// Horizon is the simulated duration in seconds.
	Horizon float64

	// WarmUp discards the initial transient: requests before WarmUp are
	// not tallied and occupancy is measured from WarmUp onward.
	WarmUp float64

	// RequestInterval is the mean spacing of perception requests (Poisson
	// arrivals). Zero disables request sampling (state-occupancy only).
	RequestInterval float64

	// Classes, when at least two, switches requests to label-level voting:
	// each request draws a ground-truth label and per-module output labels
	// from the generative model, and every scheme of LabelSchemes decides
	// the output. The count-rule tally is still maintained from the same
	// samples, so all views stay comparable.
	Classes int

	// WrongLabels selects how erring modules choose their wrong label.
	// The zero value means mlsim.CommonWrongLabel (adversarial agreement).
	WrongLabels mlsim.WrongLabelPolicy

	// LabelSchemes decide label votes, each on the same sampled labels and
	// into its own tally. Deciding draws no random numbers, so each
	// scheme's tally is the one a run with that scheme alone would give,
	// and the schemes are compared on common random numbers. Empty means
	// the BFT threshold voter.Threshold{K: 2f+r+1} alone.
	LabelSchemes []voter.LabelScheme

	// Attacker, when non-nil, replaces the constant-rate compromise
	// process with the Markov-modulated adversary (mirrors
	// nvp.BuildNoRejuvenationAttacked / BuildWithRejuvenationAttacked).
	Attacker *nvp.AttackerParams

	// Observer, when non-nil, receives a timestamped line for every
	// lifecycle event (compromise, failure, repair, rejuvenation,
	// clock tick, attacker phase change). For tracing and debugging;
	// leave nil in measurement runs.
	Observer func(time float64, event string)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	var errs []error
	if err := c.Params.Validate(c.Rejuvenation); err != nil {
		errs = append(errs, err)
	}
	errs = append(errs, finiteTimes(c.Horizon, c.WarmUp, c.RequestInterval)...)
	if c.Horizon <= 0 {
		errs = append(errs, fmt.Errorf("percept: horizon = %g must be positive", c.Horizon))
	}
	if c.WarmUp < 0 || c.WarmUp >= c.Horizon {
		errs = append(errs, fmt.Errorf("percept: warm-up = %g must lie in [0, horizon)", c.WarmUp))
	}
	if c.RequestInterval < 0 {
		errs = append(errs, fmt.Errorf("percept: request interval = %g must be non-negative", c.RequestInterval))
	}
	if c.Classes == 1 || c.Classes < 0 {
		errs = append(errs, fmt.Errorf("percept: classes = %d must be zero or at least two", c.Classes))
	}
	if c.WrongLabels != 0 && c.WrongLabels != mlsim.CommonWrongLabel && c.WrongLabels != mlsim.IndependentWrongLabels {
		errs = append(errs, fmt.Errorf("percept: unknown wrong-label policy %d", c.WrongLabels))
	}
	for k, scheme := range c.LabelSchemes {
		if scheme == nil {
			errs = append(errs, fmt.Errorf("percept: label scheme %d is nil", k))
		}
	}
	if c.Attacker != nil {
		if err := c.Attacker.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// finiteTimes returns a *des.NonFiniteError for each of the run's times
// that is NaN or infinite: the clock never reaches such a horizon, and a
// NaN warm-up or request interval slips past every range check.
func finiteTimes(horizon, warmUp, requestInterval float64) []error {
	var errs []error
	for _, err := range []error{
		des.CheckFinite("horizon", horizon),
		des.CheckFinite("warm-up", warmUp),
		des.CheckFinite("request interval", requestInterval),
	} {
		if err != nil {
			errs = append(errs, fmt.Errorf("percept: %w", err))
		}
	}
	return errs
}

// wrongLabelPolicy resolves the configured policy default.
func (c Config) wrongLabelPolicy() mlsim.WrongLabelPolicy {
	if c.WrongLabels == 0 {
		return mlsim.CommonWrongLabel
	}
	return c.WrongLabels
}

// Result summarizes one simulation run.
type Result struct {
	// Tally counts voted request outcomes from the generative error model
	// under the paper's counting rule (A.2/A.3).
	Tally voter.Tally

	// LabelTallies count outcomes under each label scheme, in
	// Config.LabelSchemes order (one tally for the default scheme); only
	// populated when Config.Classes enables label voting.
	LabelTallies []voter.Tally

	// AnalyticReward is the time-weighted average of the paper's
	// reliability function over the visited states: the simulation
	// estimate of E[R_sys], directly comparable to the DSPN solvers.
	AnalyticReward float64

	// Occupancy maps module-population states (i, j, k) to the fraction
	// of post-warm-up time spent there.
	Occupancy map[[3]int]float64

	// Requests is the number of tallied perception requests.
	Requests int

	// FirstOutage is the time at which the voter first became structurally
	// silent (fewer than Threshold operational modules), measured from
	// time zero. Negative when no outage occurred within the horizon.
	FirstOutage float64
}

// System is a single-run simulator instance.
type System struct {
	cfg Config
	rng *des.RNG
	sim des.Simulation

	healthy, compromised, failed, rejuvenating int
	parked                                     int  // undispatched activation tokens (Pac)
	clockWaiting                               bool // waits-for-wave policy: clock held until the wave drains
	attackOn                                   bool // Markov-modulated attacker phase

	// Timer slots, each re-armed in place for the whole run.
	compromiseEv, failEv, repairEv, rejuvDoneEv, attackPhaseEv, clockEv, requestEv des.Handle

	// The timers' actions, bound once in New: a method value evaluated at
	// every re-arm would allocate a closure each time.
	act struct {
		compromise, fail, repair, rejuvDone, attackFlip, clock, request des.Action
	}

	// Per-request sample buffers, sized N in New.
	labels  []int
	correct []bool

	errModel *mlsim.ErrorModel
	rf       reliability.StateFn
	rule     voter.CountRule

	labelSchemes []voter.LabelScheme

	firstOutage float64
	scheme      reliability.Scheme

	// Time accrued per population state while measuring, indexed by
	// stateIndex(healthy, compromised); visited marks each state that
	// accrued time (possibly zero): the keys of Result.Occupancy.
	occupancy    []float64
	visited      []bool
	lastState    [3]int
	lastObs      float64
	measuring    bool
	windowLo     float64
	tally        voter.Tally
	labelTallies []voter.Tally
	requests     int
}

// New prepares a simulator driven by the given random stream.
func New(cfg Config, rng *des.RNG) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("percept: nil rng")
	}
	em, err := mlsim.NewErrorModel(cfg.Params.P, cfg.Params.PPrime, cfg.Params.Alpha)
	if err != nil {
		return nil, err
	}
	rule, err := voter.NewCountRule(cfg.Params.Scheme().Threshold())
	if err != nil {
		return nil, err
	}
	rf, err := paperReliability(cfg.Params)
	if err != nil {
		return nil, err
	}
	n := cfg.Params.N
	s := &System{
		cfg:       cfg,
		rng:       rng,
		errModel:  em,
		rule:      rule,
		rf:        rf,
		occupancy: make([]float64, (n+1)*(n+1)),
		visited:   make([]bool, (n+1)*(n+1)),
		healthy:   n,
		labels:    make([]int, 0, n),
		correct:   make([]bool, 0, n),
	}
	s.act.compromise = s.onCompromise
	s.act.fail = s.onFailure
	s.act.repair = s.onRepair
	s.act.rejuvDone = s.onRejuvenationDone
	s.act.attackFlip = s.onAttackPhaseFlip
	s.act.clock = s.onClockTick
	s.act.request = s.onRequest
	s.firstOutage = -1
	s.scheme = cfg.Params.Scheme()
	if cfg.Classes >= 2 {
		s.labelSchemes = cfg.LabelSchemes
		if len(s.labelSchemes) == 0 {
			th, err := voter.NewThreshold(cfg.Params.Scheme().Threshold())
			if err != nil {
				return nil, err
			}
			s.labelSchemes = []voter.LabelScheme{th}
		}
		s.labelTallies = make([]voter.Tally, len(s.labelSchemes))
	}
	return s, nil
}

// numStates is the number of population states (i, j, k) with
// i+j+k = n: the most entries Result.Occupancy can hold, so the map sized
// with it never grows and a run's allocations do not depend on how many
// states its horizon happens to visit.
func numStates(n int) int { return (n + 1) * (n + 2) / 2 }

// paperReliability selects the same reward the analytic models use: the
// verbatim appendix matrices for the two published configurations, the
// generalized dependent model otherwise (mirrors nvp.Model.PaperReliability).
func paperReliability(p nvp.Params) (reliability.StateFn, error) {
	pr := p.Reliability()
	switch {
	case p.N == 4 && p.F == 1 && p.R == 0:
		return reliability.FourVersion(pr)
	case p.N == 6 && p.F == 1 && p.R == 1:
		return reliability.SixVersion(pr)
	default:
		return reliability.Dependent(pr, p.Scheme())
	}
}

// Run executes the simulation and returns its result. A System is
// single-use: call New again for another replication.
func (s *System) Run() (*Result, error) {
	s.armDynamics()
	if s.cfg.RequestInterval > 0 {
		s.scheduleNextRequest()
	}
	if _, err := s.sim.Schedule(s.cfg.WarmUp, s.startMeasuring); err != nil {
		return nil, err
	}
	if err := s.sim.RunUntil(s.cfg.Horizon); err != nil {
		return nil, err
	}
	return s.finish()
}

// armDynamics arms the initial attacker, lifecycle and clock timers.
func (s *System) armDynamics() {
	s.scheduleAttackPhaseFlip()
	s.rescheduleLifecycle()
	if s.cfg.Rejuvenation {
		s.armClock()
	}
}

func (s *System) startMeasuring() {
	s.measuring = true
	s.windowLo = s.sim.Now()
	s.lastObs = s.sim.Now()
	s.lastState = s.stateTriple()
}

func (s *System) finish() (*Result, error) {
	window := s.cfg.Horizon - s.windowLo
	if !s.measuring || window <= 0 {
		return nil, errors.New("percept: measurement window is empty")
	}
	// Close the occupancy window at the horizon.
	s.accrue(s.cfg.Horizon - s.lastObs)
	s.lastObs = s.cfg.Horizon

	n := s.cfg.Params.N
	res := &Result{
		Tally:        s.tally,
		LabelTallies: s.labelTallies,
		Occupancy:    make(map[[3]int]float64, numStates(n)),
		Requests:     s.requests,
		FirstOutage:  s.firstOutage,
	}
	// Sum in ascending (i, j) order, which is ascending (i, j, k) order
	// because k = n-i-j: the reward is bit-for-bit reproducible.
	var reward float64
	for i := 0; i <= n; i++ {
		for j := 0; i+j <= n; j++ {
			at := stateIndex(n, i, j)
			if !s.visited[at] {
				continue
			}
			frac := s.occupancy[at] / window
			res.Occupancy[[3]int{i, j, n - i - j}] = frac
			reward += frac * s.rf(i, j, n-i-j)
		}
	}
	res.AnalyticReward = reward
	return res, nil
}

// stateIndex is the position of population state (i, j, n-i-j) in the
// occupancy arrays.
func stateIndex(n, i, j int) int { return i*(n+1) + j }

// accrue adds dt of occupancy to the state being left, lastState.
func (s *System) accrue(dt float64) {
	at := stateIndex(s.cfg.Params.N, s.lastState[0], s.lastState[1])
	s.occupancy[at] += dt
	s.visited[at] = true
}

// stateTriple returns (healthy, compromised, failed+rejuvenating).
func (s *System) stateTriple() [3]int {
	return [3]int{s.healthy, s.compromised, s.failed + s.rejuvenating}
}

// noteStateChange accrues occupancy up to now for the state being left
// and records the first voter outage. Call it after mutating the
// population counts.
func (s *System) noteStateChange() {
	if s.firstOutage < 0 && s.scheme.Outage(s.failed+s.rejuvenating) {
		s.firstOutage = s.sim.Now()
	}
	if !s.measuring {
		return
	}
	now := s.sim.Now()
	s.accrue(now - s.lastObs)
	s.lastObs = now
	s.lastState = s.stateTriple()
}
