package fleethealth

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTrackerSnapshotAndHopEvidence(t *testing.T) {
	withObs(t)
	clock := newFakeClock()
	tr := NewTracker(Config{
		Breaker:        BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute},
		UnhealthyAfter: 2,
		Now:            clock.Now,
	}, []string{"http://b", "http://a", "http://a"}) // dup collapses

	peers := tr.Peers()
	if len(peers) != 2 || peers[0] != "http://a" || peers[1] != "http://b" {
		t.Fatalf("Peers() = %v, want sorted unique [http://a http://b]", peers)
	}

	// Optimistic start: never-probed peers are healthy, breakers closed.
	for _, ph := range tr.Snapshot() {
		if !ph.Healthy || ph.Breaker != "closed" || ph.Probes != 0 {
			t.Fatalf("initial snapshot %+v, want healthy/closed/0 probes", ph)
		}
	}

	// Hop failures open the breaker but do not touch probe health.
	tr.ReportHop("http://a", errProbe)
	tr.ReportHop("http://a", errProbe)
	snap := tr.Snapshot()
	if snap[0].Breaker != "open" {
		t.Errorf("breaker after 2 hop failures = %s, want open", snap[0].Breaker)
	}
	if !snap[0].Healthy {
		t.Errorf("hop failures flipped probe health; the prober owns that flag")
	}
	if snap[0].LastError == "" {
		t.Errorf("snapshot lost the hop error")
	}
	if b := tr.Breaker("http://a"); b == nil || b.Allow() {
		t.Errorf("open breaker reachable through Breaker() must reject")
	}
	if tr.Breaker("http://nope") != nil {
		t.Errorf("untracked peer must have a nil breaker")
	}

	// A successful hop closes it again.
	tr.ReportHop("http://a", nil)
	if got := tr.Snapshot()[0].Breaker; got != "closed" {
		t.Errorf("breaker after hop success = %s, want closed", got)
	}
}

func TestTrackerProbeHealthThreshold(t *testing.T) {
	withObs(t)
	clock := newFakeClock()
	tr := NewTracker(Config{
		Breaker:        BreakerConfig{FailureThreshold: 5, Cooldown: time.Minute},
		UnhealthyAfter: 2,
		Now:            clock.Now,
	}, []string{"http://a"})

	tr.ReportProbe("http://a", errProbe)
	if ph := tr.Snapshot()[0]; !ph.Healthy || ph.ConsecutiveFailures != 1 {
		t.Fatalf("after 1 probe failure: %+v, want still healthy with run=1", ph)
	}
	tr.ReportProbe("http://a", errProbe)
	ph := tr.Snapshot()[0]
	if ph.Healthy || ph.ConsecutiveFailures != 2 || ph.ProbeFailures != 2 || ph.Probes != 2 {
		t.Fatalf("after 2 probe failures: %+v, want unhealthy run=2 fails=2 probes=2", ph)
	}
	if got := metPeersUnhealthy.Value(); got != 1 {
		t.Errorf("fleet.peers.unhealthy gauge = %v, want 1", got)
	}

	tr.ReportProbe("http://a", nil)
	ph = tr.Snapshot()[0]
	if !ph.Healthy || ph.ConsecutiveFailures != 0 || ph.LastError != "" {
		t.Fatalf("after recovery probe: %+v, want healthy, run reset, error cleared", ph)
	}
	if got := metPeersUnhealthy.Value(); got != 0 {
		t.Errorf("fleet.peers.unhealthy gauge after recovery = %v, want 0", got)
	}
	if ph.LastProbe.IsZero() {
		t.Errorf("snapshot missing last-probe time")
	}
}

// ProbeAll against real listeners: a healthy peer, a 503 peer, and a
// dead one — one synchronous sweep classifies all three.
func TestTrackerProbeAll(t *testing.T) {
	withObs(t)
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		w.Write([]byte("ready\n"))
	}))
	defer healthy.Close()
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer draining.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused

	clock := newFakeClock()
	tr := NewTracker(Config{
		Breaker:        BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
		UnhealthyAfter: 1,
		ProbeTimeout:   2 * time.Second,
		Now:            clock.Now,
	}, []string{healthy.URL, draining.URL, dead.URL})

	ok0, fail0 := metProbeOK.Value(), metProbeFail.Value()
	tr.ProbeAll(context.Background(), healthy.Client())

	byPeer := map[string]PeerHealth{}
	for _, ph := range tr.Snapshot() {
		byPeer[ph.Peer] = ph
	}
	if ph := byPeer[healthy.URL]; !ph.Healthy || ph.Breaker != "closed" {
		t.Errorf("healthy peer snapshot %+v", ph)
	}
	if ph := byPeer[draining.URL]; ph.Healthy || ph.Breaker != "open" {
		t.Errorf("draining peer snapshot %+v, want unhealthy/open", ph)
	}
	if ph := byPeer[dead.URL]; ph.Healthy || ph.Breaker != "open" || ph.LastError == "" {
		t.Errorf("dead peer snapshot %+v, want unhealthy/open with an error", ph)
	}
	if metProbeOK.Value() != ok0+1 || metProbeFail.Value() != fail0+2 {
		t.Errorf("probe counters moved ok=%d fail=%d, want 1/2",
			metProbeOK.Value()-ok0, metProbeFail.Value()-fail0)
	}

	// The peer comes back: one successful probe closes the breaker.
	tr.ReportProbe(dead.URL, nil)
	if ph := tr.Snapshot(); ph[len(ph)-1].Peer == dead.URL && ph[len(ph)-1].Breaker != "closed" {
		t.Errorf("restarted peer breaker = %s, want closed after one good probe", ph[len(ph)-1].Breaker)
	}
}

// The prober loop runs, probes repeatedly, and stops cleanly. The
// readiness signal is the probe count itself, not a sleep.
func TestStartProberRunsAndStops(t *testing.T) {
	withObs(t)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ready\n"))
	}))
	defer peer.Close()

	// Count probes by the tracker's own outcome counters, not by server
	// hits: a probe cancelled in flight by stop() can still reach the
	// handler afterwards, but its outcome is reported before stop returns.
	probes := func() int64 { return metProbeOK.Value() + metProbeFail.Value() }
	start := probes()
	tr := NewTracker(Config{ProbeInterval: time.Millisecond, ProbeTimeout: time.Second}, []string{peer.URL})
	stop := tr.StartProber(context.Background(), peer.Client())
	deadline := time.Now().Add(5 * time.Second)
	for probes()-start < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	after := probes()
	if after-start < 2 {
		t.Fatalf("prober made %d probes in 5s, want >= 2", after-start)
	}
	// stop() blocks until the loop exits; no further probes may complete.
	time.Sleep(5 * time.Millisecond)
	if got := probes(); got != after {
		t.Errorf("probes continued after stop(): %d -> %d", after, got)
	}
}
