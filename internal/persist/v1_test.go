package persist

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
)

// v1Fixture is a snapshot written by the version-1 encoder, which stored
// plan descriptors as JSON blobs. It holds one shard of an LNC-RA cache
// (capacity 24 KiB, K 3) after 400 seeded references that carry scan and
// aggregate plans and every payload type, plus the state of a tuner with
// a 64-reference window.
const v1Fixture = "testdata/v1-plans.wmsnap"

const (
	v1FixtureCapacity = 24 << 10
	v1FixtureK        = 3
	v1FixtureWindow   = 64
)

// TestReadV1Fixture decodes the version-1 fixture and checks that it
// restores to the same state as its own version-2 round trip.
func TestReadV1Fixture(t *testing.T) {
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if raw[len(magic)] != versionJSONPlans {
		t.Fatalf("fixture version %q, want %q", raw[len(magic)], versionJSONPlans)
	}
	v1, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding the v1 fixture: %v", err)
	}

	// The fixture must exercise what changed: plans of both shapes.
	scans, aggs := 0, 0
	for _, es := range v1.Shards[0].Entries {
		if p, ok := es.Plan.(*engine.Descriptor); ok {
			if p.IsAggregate() {
				aggs++
			} else {
				scans++
			}
		}
	}
	if scans == 0 || aggs == 0 || v1.Admission == nil || len(v1.Admission.Samples) == 0 {
		t.Fatalf("fixture lost coverage: %d scan plans, %d aggregate plans, admission %v", scans, aggs, v1.Admission != nil)
	}

	var buf bytes.Buffer
	if err := Write(&buf, v1); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[len(magic)]; got != version {
		t.Fatalf("writer emitted version %q, want %q", got, version)
	}
	if buf.Len() >= len(raw) {
		t.Errorf("v2 encoding is %d bytes, v1 %d: binary plans should be smaller", buf.Len(), len(raw))
	}
	v2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, v1, v2)

	cache1, tuner1 := restoreFixture(t, v1)
	cache2, tuner2 := restoreFixture(t, v2)
	if !reflect.DeepEqual(cache1, cache2) {
		t.Fatal("v1 and v2 snapshots restore to different cache states")
	}
	if !reflect.DeepEqual(tuner1, tuner2) {
		t.Fatal("v1 and v2 snapshots restore to different tuner states")
	}
}

// restoreFixture pours a fixture-shaped snapshot into a fresh cache and
// tuner and exports what they hold.
func restoreFixture(t *testing.T, snap *Snapshot) (*core.CacheState, *admission.TunerState) {
	t.Helper()
	c, err := core.New(core.Config{Capacity: v1FixtureCapacity, K: v1FixtureK, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := admission.New(admission.Config{Capacity: v1FixtureCapacity, K: v1FixtureK, Window: v1FixtureWindow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCache(c, tn, snap); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return c.ExportState(), tn.ExportState()
}
