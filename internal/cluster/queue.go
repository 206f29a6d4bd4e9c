package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/container"
)

// Queue is the durable, chunk-grained job queue. It lives entirely in
// a shared directory (local disk for one machine, NFS-style mounts for
// a fleet) with this layout:
//
//	<dir>/jobs/<id>.json         job record: spec + open|failed state
//	<dir>/jobs/<id>/chunk-N.ckpt chunk payload (container chunk record)
//	<dir>/jobs/<id>/chunk-N.done completion record (written after .ckpt)
//	<dir>/jobs/<id>/chunk-N.lease    active lease (link(2)-claimed lock file)
//	<dir>/jobs/<id>/chunk-N.attempts durable attempt counter
//	<dir>/workers/<id>.json      worker heartbeat records
//
// Crash ordering follows the registry convention (DESIGN.md §10):
// every record is written with container.AtomicWrite (temp + fsync +
// rename + parent fsync), and a chunk's payload is durable before its
// done record exists. A reader that sees chunk-N.done can always read
// chunk-N.ckpt; a crash between the two leaves a harmless stray
// payload that the next attempt overwrites with identical bytes.
//
// The chunk DAG is implicit: chunk 0 (the seed) is the only acquirable
// task until it completes; then every remaining fine-tune chunk fans
// out. Acquire enforces this ordering, so workers need no DAG logic.
type Queue struct {
	dir string
	// now is the lease clock, injectable for expiry tests.
	now func() time.Time
}

// jobRecord is the on-disk job manifest.
type jobRecord struct {
	Spec JobSpec `json:"spec"`
	// State is "open" (schedulable) or "failed" (retry budget spent).
	// "done" is never stored: completion is derived from the per-chunk
	// done records, so a torn state write cannot disagree with them.
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// attemptsRecord is the durable per-chunk attempt counter; it survives
// lease removal so the retry budget cannot be reset by a crash.
type attemptsRecord struct {
	Attempts  int    `json:"attempts"`
	LastError string `json:"lastError,omitempty"`
}

// WorkerInfo is one worker's heartbeat record.
type WorkerInfo struct {
	ID       string `json:"id"`
	LastSeen int64  `json:"lastSeenUnixMilli"`
}

// ChunkStatus reports one chunk's scheduling state.
type ChunkStatus struct {
	Chunk int `json:"chunk"`
	// State is "pending", "leased", or "done".
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// JobStatus reports one job's overall state.
type JobStatus struct {
	Spec JobSpec `json:"spec"`
	// State is "open", "done", or "failed".
	State  string        `json:"state"`
	Error  string        `json:"error,omitempty"`
	Chunks []ChunkStatus `json:"chunks"`
}

// Done reports whether every chunk completed.
func (s JobStatus) Done() bool { return s.State == "done" }

// OpenQueue opens (creating if needed) a queue rooted at dir.
func OpenQueue(dir string) (*Queue, error) {
	for _, sub := range []string{jobsDirName, workersDirName} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cluster: open queue: %w", err)
		}
	}
	return &Queue{dir: dir, now: time.Now}, nil
}

const (
	jobsDirName    = "jobs"
	workersDirName = "workers"
)

// Dir returns the queue's root directory.
func (q *Queue) Dir() string { return q.dir }

func (q *Queue) jobPath(id string) string  { return filepath.Join(q.dir, jobsDirName, id+".json") }
func (q *Queue) chunkDir(id string) string { return filepath.Join(q.dir, jobsDirName, id) }
func (q *Queue) chunkBase(id string, chunk int) string {
	return container.ChunkBase(q.chunkDir(id), chunk)
}

// Submit records a new job. The job becomes visible to workers as soon
// as its record is durable; submitting an existing ID is an error.
func (q *Queue) Submit(spec JobSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, err := os.Stat(q.jobPath(spec.ID)); err == nil {
		return fmt.Errorf("cluster: job %s already exists", spec.ID)
	}
	if err := os.MkdirAll(q.chunkDir(spec.ID), 0o755); err != nil {
		return fmt.Errorf("cluster: submit %s: %w", spec.ID, err)
	}
	if err := q.writeJob(jobRecord{Spec: spec, State: "open"}); err != nil {
		return err
	}
	telJobsSubmitted.Inc()
	return nil
}

func (q *Queue) writeJob(rec jobRecord) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return container.AtomicWrite(container.OSFS{}, q.jobPath(rec.Spec.ID), append(b, '\n'))
}

func (q *Queue) readJob(id string) (jobRecord, error) {
	b, err := os.ReadFile(q.jobPath(id))
	if err != nil {
		return jobRecord{}, fmt.Errorf("cluster: job %s: %w", id, err)
	}
	var rec jobRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return jobRecord{}, fmt.Errorf("cluster: job %s record: %w", id, err)
	}
	return rec, nil
}

// Jobs lists job IDs in sorted (submission-name) order.
func (q *Queue) Jobs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(q.dir, jobsDirName))
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(ids)
	return ids, nil
}

// Spec returns a job's spec.
func (q *Queue) Spec(id string) (JobSpec, error) {
	rec, err := q.readJob(id)
	return rec.Spec, err
}

// Status reports a job's state and per-chunk progress.
func (q *Queue) Status(id string) (JobStatus, error) {
	rec, err := q.readJob(id)
	if err != nil {
		return JobStatus{}, err
	}
	st := JobStatus{Spec: rec.Spec, State: rec.State, Error: rec.Error}
	done := 0
	now := q.now()
	for c := 0; c < rec.Spec.Chunks(); c++ {
		cs := ChunkStatus{Chunk: c, State: "pending"}
		if att, err := q.readAttempts(id, c); err == nil {
			cs.Attempts = att.Attempts
		}
		if _, err := os.Stat(q.chunkBase(id, c) + ".done"); err == nil {
			cs.State = "done"
			done++
		} else if l, err := q.readLease(id, c); err == nil && !l.Expired(now) {
			cs.State = "leased"
			cs.Worker = l.Worker
			cs.Attempts = l.Attempt
		}
		st.Chunks = append(st.Chunks, cs)
	}
	if st.State == "open" && done == rec.Spec.Chunks() {
		st.State = "done"
	}
	return st, nil
}

// Statuses reports every job.
func (q *Queue) Statuses() ([]JobStatus, error) {
	ids, err := q.Jobs()
	if err != nil {
		return nil, err
	}
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		st, err := q.Status(id)
		if err != nil {
			continue // torn submit; skip rather than wedge the listing
		}
		out = append(out, st)
	}
	return out, nil
}

// Acquire leases the next available chunk for the worker, honoring the
// chunk DAG (seed first, then fine-tunes fan out) and reclaiming
// expired leases. It returns (nil, nil) when no work is available.
//
// The claim is a hard link of a fully-written, fsynced temp file onto
// the lease path: link(2) fails with EEXIST for all but exactly one
// contender, and — unlike create-then-write — the lease file can never
// be observed empty or partial, so a racing reader cannot mistake an
// in-progress claim for a corrupt lease and steal it. An expired lease
// is reclaimed by renaming it to a worker-unique tombstone first —
// rename succeeds for exactly one contender, so two workers cannot
// both delete-and-reclaim the same expired lease (the
// delete-then-create race would let the loser remove the winner's
// fresh claim).
func (q *Queue) Acquire(worker string, ttl time.Duration) (*Lease, error) {
	if err := validName(worker); err != nil {
		return nil, err
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("cluster: lease ttl must be positive")
	}
	ids, err := q.Jobs()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		rec, err := q.readJob(id)
		if err != nil || rec.State != "open" {
			continue
		}
		for _, chunk := range q.schedulable(rec.Spec) {
			l, err := q.tryClaim(rec.Spec, chunk, worker, ttl)
			if err != nil {
				return nil, err
			}
			if l != nil {
				telLeasesAcquired.Inc()
				return l, nil
			}
		}
	}
	return nil, nil
}

// schedulable lists the job's not-yet-done chunks in DAG order: only
// the seed until it completes, then every pending fine-tune.
func (q *Queue) schedulable(spec JobSpec) []int {
	if _, err := os.Stat(q.chunkBase(spec.ID, 0) + ".done"); err != nil {
		return []int{0}
	}
	var out []int
	for c := 1; c < spec.Chunks(); c++ {
		if _, err := os.Stat(q.chunkBase(spec.ID, c) + ".done"); err != nil {
			out = append(out, c)
		}
	}
	return out
}

// tryClaim attempts to lease one chunk; nil lease means it is held by
// someone else (or the claim race was lost) and the caller should move
// on.
func (q *Queue) tryClaim(spec JobSpec, chunk int, worker string, ttl time.Duration) (*Lease, error) {
	leasePath := q.chunkBase(spec.ID, chunk) + ".lease"
	if data, err := os.ReadFile(leasePath); err == nil {
		cur, perr := ParseLease(data)
		if perr == nil && !cur.Expired(q.now()) {
			return nil, nil // validly held
		}
		// Expired or corrupt: reclaim via rename-to-tombstone so only
		// one contender proceeds.
		tomb := leasePath + ".reclaim." + worker
		_ = os.Remove(tomb) // stale tombstone from a previous crash of this worker
		if err := os.Rename(leasePath, tomb); err != nil {
			return nil, nil // another worker reclaimed first
		}
		if perr == nil {
			// The expired attempt consumed retry budget; record it
			// durably before the tombstone disappears.
			if err := q.bumpAttempts(spec.ID, chunk, cur.Attempt, "lease expired (worker crash?)"); err != nil {
				return nil, err
			}
			telLeasesReclaimed.Inc()
		}
		_ = os.Remove(tomb)
	}
	att, _ := q.readAttempts(spec.ID, chunk)
	next := att.Attempts + 1
	if next > spec.MaxRetries+1 {
		// Budget exhausted with no live lease: a Fail-side crash left
		// the job record open. Heal it here.
		return nil, q.markFailed(spec.ID, fmt.Sprintf("chunk %d exhausted its %d attempts: %s", chunk, spec.MaxRetries+1, att.LastError))
	}
	l := Lease{Job: spec.ID, Chunk: chunk, Worker: worker, Attempt: next, Expires: q.now().Add(ttl).UnixMilli()}
	data, err := EncodeLease(l)
	if err != nil {
		return nil, err
	}
	// Stage the complete lease in a worker-unique temp file, then link
	// it into place: the claim is atomic AND the lease file is complete
	// from the instant it exists.
	tmp := leasePath + ".claim." + worker
	if err := writeClaimFile(tmp, data); err != nil {
		return nil, fmt.Errorf("cluster: claim %s: %w", leasePath, err)
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, leasePath); err != nil {
		if os.IsExist(err) {
			return nil, nil // lost the claim race
		}
		return nil, fmt.Errorf("cluster: claim %s: %w", leasePath, err)
	}
	return &l, nil
}

// writeClaimFile writes and fsyncs a staged lease before it is linked
// onto the lease path.
func writeClaimFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Renew extends a held lease. Callers renew well before expiry
// (Worker renews every TTL/3); a lease that already expired may have
// been reclaimed, so renewal refuses rather than resurrecting it.
func (q *Queue) Renew(l *Lease, ttl time.Duration) error {
	cur, err := q.readLease(l.Job, l.Chunk)
	if err != nil || cur.Worker != l.Worker || cur.Attempt != l.Attempt {
		return fmt.Errorf("cluster: lease on %s chunk %d no longer held by %s", l.Job, l.Chunk, l.Worker)
	}
	if cur.Expired(q.now()) {
		return fmt.Errorf("cluster: lease on %s chunk %d expired before renewal", l.Job, l.Chunk)
	}
	nl := *l
	nl.Expires = q.now().Add(ttl).UnixMilli()
	data, err := EncodeLease(nl)
	if err != nil {
		return err
	}
	if err := container.AtomicWrite(container.OSFS{}, q.chunkBase(l.Job, l.Chunk)+".lease", data); err != nil {
		return err
	}
	l.Expires = nl.Expires
	return nil
}

func (q *Queue) readLease(job string, chunk int) (Lease, error) {
	data, err := os.ReadFile(q.chunkBase(job, chunk) + ".lease")
	if err != nil {
		return Lease{}, err
	}
	return ParseLease(data)
}

func (q *Queue) readAttempts(job string, chunk int) (attemptsRecord, error) {
	data, err := os.ReadFile(q.chunkBase(job, chunk) + ".attempts")
	if err != nil {
		return attemptsRecord{}, err
	}
	var rec attemptsRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return attemptsRecord{}, err
	}
	return rec, nil
}

// bumpAttempts raises the durable attempt counter to at least n.
func (q *Queue) bumpAttempts(job string, chunk, n int, lastErr string) error {
	rec, _ := q.readAttempts(job, chunk)
	if rec.Attempts >= n {
		return nil
	}
	rec.Attempts = n
	rec.LastError = lastErr
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return container.AtomicWrite(container.OSFS{}, q.chunkBase(job, chunk)+".attempts", append(b, '\n'))
}

// Complete uploads a finished chunk as a container chunk record
// (payload first, done record second), then removes the lease. Because
// chunk training is bitwise deterministic, Complete is idempotent — a
// second worker completing the same chunk writes identical bytes, so
// losing the lease mid-upload is harmless.
func (q *Queue) Complete(l *Lease, payload []byte) error {
	rec := container.ChunkRecord{Worker: l.Worker, Attempt: l.Attempt}
	if err := container.WriteChunk(container.OSFS{}, q.chunkBase(l.Job, l.Chunk), payload, rec); err != nil {
		return fmt.Errorf("cluster: complete chunk %d of %s: %w", l.Chunk, l.Job, err)
	}
	q.releaseIfHeld(l)
	telChunksCompleted.Inc()
	return nil
}

// Fail records a failed training attempt, releases the lease, and
// fails the whole job once the chunk's retry budget is spent.
func (q *Queue) Fail(l *Lease, trainErr error) error {
	msg := "training failed"
	if trainErr != nil {
		msg = trainErr.Error()
	}
	if err := q.bumpAttempts(l.Job, l.Chunk, l.Attempt, msg); err != nil {
		return err
	}
	q.releaseIfHeld(l)
	telChunksFailed.Inc()
	spec, err := q.Spec(l.Job)
	if err != nil {
		return err
	}
	if l.Attempt >= spec.MaxRetries+1 {
		return q.markFailed(l.Job, fmt.Sprintf("chunk %d exhausted its %d attempts: %s", l.Chunk, spec.MaxRetries+1, msg))
	}
	return nil
}

// releaseIfHeld removes the lease file only if it still records this
// exact claim; a reclaimed-and-reissued lease belongs to someone else.
func (q *Queue) releaseIfHeld(l *Lease) {
	cur, err := q.readLease(l.Job, l.Chunk)
	if err == nil && cur.Worker == l.Worker && cur.Attempt == l.Attempt {
		_ = os.Remove(q.chunkBase(l.Job, l.Chunk) + ".lease")
	}
}

func (q *Queue) markFailed(id, msg string) error {
	rec, err := q.readJob(id)
	if err != nil {
		return err
	}
	if rec.State == "failed" {
		return nil
	}
	rec.State = "failed"
	rec.Error = msg
	if err := q.writeJob(rec); err != nil {
		return err
	}
	telJobsFailed.Inc()
	return nil
}

// ChunkPayload reads a completed chunk's payload, verifying the
// container framing and the done record's checksum.
func (q *Queue) ChunkPayload(job string, chunk int) ([]byte, error) {
	_, payload, err := container.ReadChunk(q.chunkBase(job, chunk))
	if err != nil {
		return nil, fmt.Errorf("cluster: chunk %d of %s: %w", chunk, job, err)
	}
	return payload, nil
}

// Heartbeat records that a worker is alive.
func (q *Queue) Heartbeat(worker string) error {
	if err := validName(worker); err != nil {
		return err
	}
	b, err := json.Marshal(WorkerInfo{ID: worker, LastSeen: q.now().UnixMilli()})
	if err != nil {
		return err
	}
	path := filepath.Join(q.dir, workersDirName, worker+".json")
	if err := container.AtomicWrite(container.OSFS{}, path, append(b, '\n')); err != nil {
		return err
	}
	telHeartbeats.Inc()
	return nil
}

// Workers lists registered workers sorted by ID.
func (q *Queue) Workers() ([]WorkerInfo, error) {
	entries, err := os.ReadDir(filepath.Join(q.dir, workersDirName))
	if err != nil {
		return nil, err
	}
	var out []WorkerInfo
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(q.dir, workersDirName, e.Name()))
		if err != nil {
			continue
		}
		var w WorkerInfo
		if json.Unmarshal(b, &w) == nil && w.ID != "" {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
