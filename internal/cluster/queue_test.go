package cluster

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// testSpec returns a valid spec; queue tests never train it.
func testSpec(id string, chunks int) JobSpec {
	cfg := core.DefaultConfig()
	cfg.Chunks = chunks
	cfg.SeedSteps = 10
	cfg.FineTuneSteps = 5
	cfg.MaxLen = 3
	return JobSpec{
		ID: id, Kind: "netflow", Dataset: "ugr16", Records: 50,
		MaxRetries: 2, Config: cfg,
	}
}

// fakeClock lets tests expire leases without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testQueue(t *testing.T) (*Queue, *fakeClock) {
	t.Helper()
	q, err := OpenQueue(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.UnixMilli(1_700_000_000_000)}
	q.now = clock.now
	return q, clock
}

func TestSubmitValidates(t *testing.T) {
	q, _ := testQueue(t)
	bad := testSpec("ok", 3)
	bad.Kind = "mystery"
	if err := q.Submit(bad); err == nil {
		t.Fatal("bad kind must be rejected")
	}
	bad = testSpec("ok", 3)
	bad.CSV = "also-inline"
	if err := q.Submit(bad); err == nil {
		t.Fatal("dataset+csv must be rejected")
	}
	bad = testSpec("../escape", 3)
	if err := q.Submit(bad); err == nil {
		t.Fatal("path-escaping id must be rejected")
	}
	bad = testSpec("dp", 1)
	bad.Config.DP = &core.DPConfig{NoiseMultiplier: 1, ClipNorm: 1, Delta: 1e-5}
	if err := q.Submit(bad); err == nil {
		t.Fatal("DP job must be rejected")
	}
	bad = testSpec("ipvec", 3)
	bad.Config.IPVectorEncoding = true
	if err := q.Submit(bad); err == nil {
		t.Fatal("IPVectorEncoding job must be rejected")
	}
	ok := testSpec("job-a", 3)
	if err := q.Submit(ok); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(ok); err == nil {
		t.Fatal("duplicate id must be rejected")
	}
}

// TestLeaseDAG verifies the chunk ordering: only the seed is
// schedulable until it completes, then the fine-tunes fan out.
func TestLeaseDAG(t *testing.T) {
	q, _ := testQueue(t)
	if err := q.Submit(testSpec("job-a", 3)); err != nil {
		t.Fatal(err)
	}

	l0, err := q.Acquire("w1", time.Minute)
	if err != nil || l0 == nil {
		t.Fatalf("acquire seed: %v %v", l0, err)
	}
	if l0.Chunk != 0 || l0.Attempt != 1 {
		t.Fatalf("first lease = %+v, want seed chunk attempt 1", l0)
	}
	// While the seed is leased and incomplete, nobody gets work.
	if l, _ := q.Acquire("w2", time.Minute); l != nil {
		t.Fatalf("fine-tune leased before seed done: %+v", l)
	}
	if err := q.Complete(l0, []byte("seed-payload")); err != nil {
		t.Fatal(err)
	}

	la, _ := q.Acquire("w1", time.Minute)
	lb, _ := q.Acquire("w2", time.Minute)
	if la == nil || lb == nil || la.Chunk == lb.Chunk {
		t.Fatalf("fine-tunes must fan out to distinct chunks: %+v %+v", la, lb)
	}
	if l, _ := q.Acquire("w3", time.Minute); l != nil {
		t.Fatalf("third lease on a drained job: %+v", l)
	}
	if err := q.Complete(la, []byte("p1")); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(lb, []byte("p2")); err != nil {
		t.Fatal(err)
	}

	st, err := q.Status("job-a")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("status = %+v, want done", st)
	}
	payload, err := q.ChunkPayload("job-a", 0)
	if err != nil || string(payload) != "seed-payload" {
		t.Fatalf("seed payload round-trip: %q %v", payload, err)
	}
}

// TestExpiredLeaseReclaim verifies the crash-recovery path: a lease
// whose holder died is reclaimed after expiry, with the attempt
// counter carried forward durably.
func TestExpiredLeaseReclaim(t *testing.T) {
	q, clock := testQueue(t)
	if err := q.Submit(testSpec("job-a", 2)); err != nil {
		t.Fatal(err)
	}
	l, _ := q.Acquire("w1", time.Minute)
	if l == nil {
		t.Fatal("no lease")
	}
	// Not expired yet: other workers must not steal it.
	clock.advance(30 * time.Second)
	if stolen, _ := q.Acquire("w2", time.Minute); stolen != nil {
		t.Fatalf("unexpired lease stolen: %+v", stolen)
	}
	// w1 dies; the lease expires.
	clock.advance(2 * time.Minute)
	re, err := q.Acquire("w2", time.Minute)
	if err != nil || re == nil {
		t.Fatalf("reclaim failed: %v %v", re, err)
	}
	if re.Chunk != 0 || re.Worker != "w2" || re.Attempt != 2 {
		t.Fatalf("reclaimed lease = %+v, want seed chunk attempt 2 by w2", re)
	}
	// The dead worker's stale lease handle must not release w2's claim.
	q.releaseIfHeld(l)
	if cur, err := q.readLease("job-a", 0); err != nil || cur.Worker != "w2" {
		t.Fatalf("stale holder released the new lease: %+v %v", cur, err)
	}
	// Renewal by the dead worker must refuse.
	if err := q.Renew(l, time.Minute); err == nil {
		t.Fatal("dead worker renewed a reclaimed lease")
	}
	if err := q.Renew(re, time.Minute); err != nil {
		t.Fatalf("live renewal failed: %v", err)
	}
}

// TestCorruptLeaseReclaim: a torn/garbage lease file reads as "no
// valid claim" and is reclaimed rather than wedging the chunk.
func TestCorruptLeaseReclaim(t *testing.T) {
	q, _ := testQueue(t)
	if err := q.Submit(testSpec("job-a", 2)); err != nil {
		t.Fatal(err)
	}
	leasePath := q.chunkBase("job-a", 0) + ".lease"
	if err := os.WriteFile(leasePath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := q.Acquire("w1", time.Minute)
	if err != nil || l == nil || l.Chunk != 0 {
		t.Fatalf("corrupt lease not reclaimed: %+v %v", l, err)
	}
}

// TestRetryBudgetExhaustion: repeated failures consume the durable
// attempt counter and finally fail the whole job.
func TestRetryBudgetExhaustion(t *testing.T) {
	q, _ := testQueue(t)
	spec := testSpec("job-a", 2)
	spec.MaxRetries = 1 // two attempts total
	if err := q.Submit(spec); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		l, _ := q.Acquire("w1", time.Minute)
		if l == nil || l.Attempt != attempt {
			t.Fatalf("attempt %d lease = %+v", attempt, l)
		}
		if err := q.Fail(l, errTest); err != nil {
			t.Fatal(err)
		}
	}
	st, err := q.Status("job-a")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "exhausted") {
		t.Fatalf("status = %+v, want failed", st)
	}
	if l, _ := q.Acquire("w1", time.Minute); l != nil {
		t.Fatalf("failed job still scheduling: %+v", l)
	}
}

var errTest = os.ErrInvalid

// TestPayloadChecksum: a corrupted chunk payload is detected against
// its done record.
func TestPayloadChecksum(t *testing.T) {
	q, _ := testQueue(t)
	if err := q.Submit(testSpec("job-a", 2)); err != nil {
		t.Fatal(err)
	}
	l, _ := q.Acquire("w1", time.Minute)
	if err := q.Complete(l, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip the payload under the done record.
	base := q.chunkBase("job-a", 0)
	framed, err := os.ReadFile(base + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	framed[len(framed)-1] ^= 0xff
	if err := os.WriteFile(base+".ckpt", framed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := q.ChunkPayload("job-a", 0); err == nil {
		t.Fatal("corrupt payload must be rejected")
	}
}

// TestPayloadWithoutDoneRecord: the crash window between writing the
// payload and writing the done record must leave the chunk pending.
func TestPayloadWithoutDoneRecord(t *testing.T) {
	q, _ := testQueue(t)
	if err := q.Submit(testSpec("job-a", 2)); err != nil {
		t.Fatal(err)
	}
	l, _ := q.Acquire("w1", time.Minute)
	if err := q.Complete(l, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	base := q.chunkBase("job-a", 0)
	if err := os.Remove(base + ".done"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.ChunkPayload("job-a", 0); err == nil {
		t.Fatal("payload without done record must not read as complete")
	}
	if l, _ := q.Acquire("w2", time.Minute); l == nil || l.Chunk != 0 {
		t.Fatalf("chunk with orphan payload must be re-schedulable: %+v", l)
	}
}

// TestConcurrentAcquire races many workers at one fan-out and asserts
// no chunk is double-leased (run under -race via make test-race).
func TestConcurrentAcquire(t *testing.T) {
	q, _ := testQueue(t)
	if err := q.Submit(testSpec("job-a", 6)); err != nil {
		t.Fatal(err)
	}
	seed, _ := q.Acquire("seeder", time.Minute)
	if err := q.Complete(seed, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	leases := make([]*Lease, 8)
	for i := range leases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := q.Acquire(workerName(i), time.Minute)
			if err != nil {
				t.Error(err)
			}
			leases[i] = l
		}(i)
	}
	wg.Wait()
	got := map[int]string{}
	for i, l := range leases {
		if l == nil {
			continue
		}
		if prev, dup := got[l.Chunk]; dup {
			t.Fatalf("chunk %d double-leased by %s and %s", l.Chunk, prev, leases[i].Worker)
		}
		got[l.Chunk] = l.Worker
	}
	if len(got) != 5 {
		t.Fatalf("leased %d distinct chunks, want all 5 fine-tunes", len(got))
	}
}

func workerName(i int) string { return "w" + string(rune('a'+i)) }
