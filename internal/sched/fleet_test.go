package sched

import (
	"path/filepath"
	"testing"
	"time"

	"mlcd/internal/mlcdsys"
)

// A restarted scheduler must come back fleet-warm: the journal's probes
// prime the cache during replay, and the prior is rebuilt from them
// before the worker pool starts — the first search after a crash starts
// from everything the fleet had already paid to learn.
func TestFleetPriorRebuiltFromJournalReplay(t *testing.T) {
	journalDir := filepath.Join(t.TempDir(), "journal")

	a, err := New(newTestSystem(t), Config{JournalDir: journalDir, FleetPrior: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.FleetPrior().KeyCount() != 0 {
		t.Fatal("fresh scheduler must start with an empty prior")
	}
	job, err := a.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, a, job.ID, StatusDone)
	learned := a.FleetPrior()
	if learned.KeyCount() == 0 {
		t.Fatal("finished job must teach the prior")
	}
	a.Close()

	b, err := New(newTestSystem(t), Config{JournalDir: journalDir, FleetPrior: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	recovered := b.FleetPrior()
	if recovered.KeyCount() == 0 {
		t.Fatal("replayed journal must rebuild the prior before the first submission")
	}
	le, err := learned.Encode()
	if err != nil {
		t.Fatal(err)
	}
	re, err := recovered.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(le) != string(re) {
		t.Fatalf("recovered prior differs from the learned one:\n%s\nvs\n%s", re, le)
	}
}

// A declined search still paid for its probes, and the prior must learn
// from them at once rather than wait for some later search to succeed:
// resnet-cifar10 cannot finish within 2 h on the test catalogue, so the
// search probes and then fails.
func TestFleetPriorLearnsFromFailedSearch(t *testing.T) {
	s, err := New(newTestSystem(t), Config{FleetPrior: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Deadline: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, s, job.ID, StatusFailed)
	if s.Cache().Stats().Misses == 0 {
		t.Fatal("the declined search paid for no probe; the test needs one")
	}
	if s.FleetPrior().KeyCount() == 0 {
		t.Fatal("a declined search's paid probes must reach the prior")
	}
}

// With the feature off every knob is inert: no prior is learned, served,
// or installable — the bit-identity guarantee's control-plane half.
func TestFleetPriorOffIsInert(t *testing.T) {
	s, err := New(newTestSystem(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Submit("resnet-cifar10", "acme", mlcdsys.Requirements{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, s, job.ID, StatusDone)
	if s.FleetPrior() != nil {
		t.Fatal("feature off must never serve a prior")
	}
	s.RebuildFleetPrior()
	if s.FleetPrior() != nil {
		t.Fatal("RebuildFleetPrior must be a no-op with the feature off")
	}
}
