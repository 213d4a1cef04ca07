package voter

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOutcomeString(t *testing.T) {
	tests := []struct {
		give Outcome
		want string
	}{
		{Correct, "correct"},
		{Erroneous, "erroneous"},
		{Skipped, "skipped"},
		{Outcome(9), "Outcome(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestNewCountRule(t *testing.T) {
	if _, err := NewCountRule(0); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("err = %v", err)
	}
	r, err := NewCountRule(3)
	if err != nil || r.Threshold != 3 {
		t.Errorf("NewCountRule = %+v, %v", r, err)
	}
}

func TestCountRuleClassify(t *testing.T) {
	rule := CountRule{Threshold: 3}
	tests := []struct {
		name string
		give []bool
		want Outcome
	}{
		{name: "all correct", give: []bool{true, true, true, true}, want: Correct},
		{name: "exactly threshold correct", give: []bool{true, true, true, false}, want: Correct},
		{name: "exactly threshold wrong", give: []bool{false, false, false, true}, want: Erroneous},
		{name: "all wrong", give: []bool{false, false, false, false}, want: Erroneous},
		{name: "split two-two", give: []bool{true, true, false, false}, want: Skipped},
		{name: "too few votes", give: []bool{true, true}, want: Skipped},
		{name: "no votes", give: nil, want: Skipped},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := rule.Classify(tt.give); got != tt.want {
				t.Errorf("Classify(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestThresholdDecide(t *testing.T) {
	th, err := NewThreshold(4)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		give []int
		want Decision
	}{
		{name: "clear winner", give: []int{7, 7, 7, 7, 3, 2}, want: Decision{Label: 7, Decided: true}},
		{name: "below threshold", give: []int{7, 7, 7, 3, 3, 2}, want: Decision{}},
		{name: "empty", give: nil, want: Decision{}},
		{name: "unanimous", give: []int{1, 1, 1, 1}, want: Decision{Label: 1, Decided: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := th.Decide(tt.give); got != tt.want {
				t.Errorf("Decide(%v) = %+v, want %+v", tt.give, got, tt.want)
			}
		})
	}
	if _, err := NewThreshold(0); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("err = %v", err)
	}
	if th.Name() == "" {
		t.Error("empty name")
	}
}

func TestThresholdTieSkips(t *testing.T) {
	th := Threshold{K: 2}
	if got := th.Decide([]int{1, 1, 2, 2}); got.Decided {
		t.Errorf("tie decided: %+v", got)
	}
}

func TestMajority(t *testing.T) {
	var m Majority
	tests := []struct {
		name string
		give []int
		want Decision
	}{
		{name: "majority of three", give: []int{5, 5, 9}, want: Decision{Label: 5, Decided: true}},
		{name: "no majority", give: []int{5, 9, 7}, want: Decision{}},
		{name: "even split", give: []int{5, 5, 9, 9}, want: Decision{}},
		{name: "empty", give: nil, want: Decision{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.Decide(tt.give); got != tt.want {
				t.Errorf("Decide(%v) = %+v, want %+v", tt.give, got, tt.want)
			}
		})
	}
	if m.Name() != "majority" {
		t.Error("name")
	}
}

func TestUnanimity(t *testing.T) {
	var u Unanimity
	if got := u.Decide([]int{4, 4, 4}); !got.Decided || got.Label != 4 {
		t.Errorf("Decide = %+v", got)
	}
	if got := u.Decide([]int{4, 4, 5}); got.Decided {
		t.Errorf("Decide = %+v", got)
	}
	if got := u.Decide(nil); got.Decided {
		t.Errorf("Decide(nil) = %+v", got)
	}
	if u.Name() != "unanimity" {
		t.Error("name")
	}
}

func TestPlurality(t *testing.T) {
	var p Plurality
	if got := p.Decide([]int{1, 2, 2}); !got.Decided || got.Label != 2 {
		t.Errorf("Decide = %+v", got)
	}
	if got := p.Decide([]int{1, 2}); got.Decided {
		t.Errorf("tie should skip: %+v", got)
	}
	if p.Name() != "plurality" {
		t.Error("name")
	}
}

func TestClassifyDecision(t *testing.T) {
	tests := []struct {
		name  string
		give  Decision
		truth int
		want  Outcome
	}{
		{name: "correct", give: Decision{Label: 3, Decided: true}, truth: 3, want: Correct},
		{name: "wrong", give: Decision{Label: 4, Decided: true}, truth: 3, want: Erroneous},
		{name: "skip", give: Decision{}, truth: 3, want: Skipped},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClassifyDecision(tt.give, tt.truth); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTally(t *testing.T) {
	var ta Tally
	for _, o := range []Outcome{Correct, Correct, Correct, Erroneous, Skipped} {
		ta.Record(o)
	}
	if ta.Total() != 5 {
		t.Errorf("Total = %d", ta.Total())
	}
	if ta.Reliability() != 0.6 {
		t.Errorf("Reliability = %g", ta.Reliability())
	}
	if ta.ErrorRate() != 0.2 {
		t.Errorf("ErrorRate = %g", ta.ErrorRate())
	}
	if ta.Safety() != 0.8 {
		t.Errorf("Safety = %g", ta.Safety())
	}
	var empty Tally
	if empty.Reliability() != 0 || empty.ErrorRate() != 0 || empty.Safety() != 0 {
		t.Error("empty tally rates should be zero")
	}
}

// Property: with BFT thresholds (K > n/2), at most one label can reach the
// threshold, so a decision is never ambiguous and equals the plurality
// winner when decided.
func TestThresholdAgreesWithPluralityProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		labels := make([]int, len(raw))
		for i, r := range raw {
			labels[i] = int(r % 4)
		}
		k := len(labels)/2 + 1
		d := Threshold{K: k}.Decide(labels)
		if !d.Decided {
			return true
		}
		p := Plurality{}.Decide(labels)
		return p.Decided && p.Label == d.Label
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the counting rule never reports both thresholds met (for
// threshold > half the module count).
func TestCountRuleConsistencyProperty(t *testing.T) {
	f := func(bits []bool) bool {
		if len(bits) > 9 {
			bits = bits[:9]
		}
		threshold := len(bits)/2 + 1
		if threshold == 0 {
			return true
		}
		rule := CountRule{Threshold: threshold}
		o := rule.Classify(bits)
		return o == Correct || o == Erroneous || o == Skipped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// mapDecide is the map-based reference the label schemes once used:
// tally every label, then the single top label wins if it reaches k.
func mapDecide(labels []int, k int) Decision {
	counts := make(map[int]int)
	for _, l := range labels {
		counts[l]++
	}
	best, bestCount, tie := 0, 0, false
	for label, count := range counts {
		switch {
		case count > bestCount:
			best, bestCount, tie = label, count, false
		case count == bestCount:
			tie = true
		}
	}
	if bestCount < k || tie {
		return Decision{}
	}
	return Decision{Label: best, Decided: true}
}

// Property: Threshold, Majority and Plurality decide exactly as the
// map-based reference on random label vectors. Labels come from a small
// alphabet and half the vectors are built as two equal blocks, so ties at
// the top count are common.
func TestDecideMatchesMapReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ties := 0
	for iter := 0; iter < 20000; iter++ {
		n := r.Intn(10)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(4) - 1 // includes a negative label
		}
		if n >= 2 && r.Intn(2) == 0 {
			// Force a tie: two labels, equally often, shuffled.
			a, b := r.Intn(5), 5+r.Intn(5)
			labels = labels[:n/2*2]
			for i := range labels {
				labels[i] = a
				if i%2 == 1 {
					labels[i] = b
				}
			}
			r.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
		}
		k := 1 + r.Intn(6)
		if len(labels) > 0 && !mapDecide(labels, 1).Decided {
			ties++ // only a tie at the top count stops a 1-threshold
		}
		if got, want := (Threshold{K: k}).Decide(labels), mapDecide(labels, k); got != want {
			t.Fatalf("Threshold{%d}.Decide(%v) = %+v, want %+v", k, labels, got, want)
		}
		if got, want := (Plurality{}).Decide(labels), mapDecide(labels, 1); got != want {
			t.Fatalf("Plurality.Decide(%v) = %+v, want %+v", labels, got, want)
		}
		want := Decision{}
		if len(labels) > 0 {
			want = mapDecide(labels, len(labels)/2+1)
		}
		if got := (Majority{}).Decide(labels); got != want {
			t.Fatalf("Majority.Decide(%v) = %+v, want %+v", labels, got, want)
		}
	}
	if ties < 1000 {
		t.Errorf("only %d tied vectors: the generator no longer forces ties", ties)
	}
}
