// Package store gives privtree sessions crash-safe persistence: an
// append-only, fsync-on-debit write-ahead log of privacy-ledger events
// plus a content-addressed artifact store for released artifacts (opaque
// bytes to the store: binary arena artifacts or JSON envelopes).
//
// Privacy argument. A privacy ledger that forgets a debit is an ε
// violation: sequential composition bounds the privacy loss of everything
// ever released about a dataset by the SUM of its debits, so an
// accountant that restarts empty lets an adversary who can bounce the
// process spend the budget again — unbounded ε. The store enforces the
// only safe ordering:
//
//   - a debit is durable (appended and fsynced) BEFORE the mechanism it
//     pays for runs, so no release can exist whose debit a crash forgets;
//   - a refund is durable BEFORE the build failure is returned, so budget
//     credited back in memory cannot silently out-live its justification;
//   - a release's artifact is durable (content-addressed file, then a
//     commit record) before the release is served as cached across
//     restarts, so a recovered cache hit re-publishes exactly the bytes
//     already paid for — post-processing, never a new spend.
//
// Crashes therefore only ever lose refunds and commits, never debits:
// recovered spent-ε is ≥ the ε of every acknowledged debit. The failure
// direction is over-counting (wasted budget), never under-counting
// (privacy violation).
//
// On disk a store directory holds:
//
//	ledger.wal      CRC-framed event log (see wal.go)
//	snapshot.json   compaction snapshot: events+commits up to a seq cursor
//	artifacts/      <sha256(artifact)>.json, written via tmp+fsync+rename
//	                (the suffix predates binary artifacts; it names any kind)
//
// Recovery is a single sequential pass: load the snapshot (if any), then
// replay WAL records with seq beyond the snapshot cursor; a torn tail is
// truncated. Compact folds the current state into a fresh snapshot and
// rotates the WAL.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrFenced marks every mutation rejected because a higher writer epoch
// exists: this store has durably ceded budget-writer authority and must
// never append again. Check with errors.Is.
var ErrFenced = errors.New("store: fenced by a higher writer epoch")

// ErrAppend marks a durable write (WAL append or artifact store) that
// failed for I/O reasons — ENOSPC, EIO, a torn disk. The operation did not
// complete; budget already debited for it may be over-counted on recovery
// (the safe direction) but is never silently leaked. Check with errors.Is;
// servers map it to 503 store_unavailable.
var ErrAppend = errors.New("store: durable write failed")

// CrashFunc is a fault-injection hook: tests install one with
// SetCrashHook and kill the process at a named fault point to prove the
// recovery invariants. The points sit at every durability boundary —
// before/after the WAL write, after its fsync, after the artifact temp
// write, after its rename, and between artifact durability and the
// commit record.
type CrashFunc func(point string)

var crashHook atomic.Pointer[CrashFunc]

// SetCrashHook installs f (nil to clear) as the process-wide fault-point
// hook. Production code never sets it; the hot path pays one atomic load.
func SetCrashHook(f CrashFunc) {
	if f == nil {
		crashHook.Store(nil)
		return
	}
	crashHook.Store(&f)
}

// CrashPoints enumerates every fault point, in the order they occur on
// the append/commit paths; the crash-injection tests iterate it.
var CrashPoints = []string{
	"wal.before_write",
	"wal.after_write",
	"wal.after_sync",
	"artifact.after_write",
	"artifact.after_rename",
	"commit.before_record",
	"snapshot.after_rename",
}

func crash(point string) {
	if f := crashHook.Load(); f != nil {
		(*f)(point)
	}
}

// FailFunc is the error-returning sibling of CrashFunc: instead of killing
// the process at a fault point, the hook makes the surrounding I/O report
// the returned error (ENOSPC-style), driving the clean-failure paths that
// SIGKILL injection cannot reach. Returning nil lets the operation
// proceed. Fail points reuse the CrashPoints names; the ones that matter
// are wal.before_write (nothing written), wal.after_write (bytes written,
// durability unknown — a failed fsync), artifact.after_write, and
// commit.before_record.
type FailFunc func(point string) error

var failHook atomic.Pointer[FailFunc]

// SetFailHook installs f (nil to clear) as the process-wide error
// injection hook. Production code never sets it; the hot path pays one
// atomic load.
func SetFailHook(f FailFunc) {
	if f == nil {
		failHook.Store(nil)
		return
	}
	failHook.Store(&f)
}

func failpoint(point string) error {
	if f := failHook.Load(); f != nil {
		return (*f)(point)
	}
	return nil
}

// Store is a crash-safe persistence root for one privacy ledger and its
// release artifacts. It is safe for concurrent use; every mutating call
// returns only after the mutation is durable.
type Store struct {
	mu   sync.Mutex
	dir  string
	wal  *wal
	lock *os.File // exclusive flock on dir/LOCK (nil on non-unix)

	closed      bool
	snapshotSeq uint64

	events  []Event // debits and refunds, replay order
	commits []Event // release commits, replay order
	epochs  []Event // writer-epoch grants, replay order
	seals   []Event // stream epoch seals, replay order
	byKey   map[string]int

	// writerEpoch is the highest epoch granted in the replicated history
	// (0 before any promotion). fencedAt, when non-zero, is the durable
	// fence: a writer at that epoch exists elsewhere and every local
	// mutation is rejected with ErrFenced.
	writerEpoch uint64
	fencedAt    uint64

	snapshotBytes int64
	artifactBytes int64
}

// epochKey is the WAL record key used for writer-epoch grants (records
// require a non-empty key; epoch records belong to the store, not to any
// release).
const epochKey = "writer-epoch"

const snapshotVersion = 1

// snapshot.json wire form. SHA is hex so the file stays greppable.
type snapshotFile struct {
	Version int         `json:"privtree_store_snapshot"`
	Seq     uint64      `json:"seq"`
	Events  []snapEvent `json:"events"`
	Commits []snapEvent `json:"commits"`
	Epochs  []snapEvent `json:"epochs,omitempty"`
	Seals   []snapEvent `json:"seals,omitempty"`
}

type snapEvent struct {
	Seq      uint64  `json:"seq"`
	Kind     string  `json:"kind"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Key      string  `json:"key"`
	At       int64   `json:"at_unix_nano"`
	SHA      string  `json:"sha256,omitempty"`
	Epoch    uint64  `json:"epoch,omitempty"`
	BatchSeq uint64  `json:"batch_seq,omitempty"`
	Trace    string  `json:"trace,omitempty"`
}

// Open opens (creating if needed) the store rooted at dir and recovers
// its state: snapshot first, then the WAL's valid record prefix. The
// recovered events and commits are available from Events and Commits.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
		return nil, err
	}
	// One process per store: concurrent writers would double-spend the
	// recovered budget and interleave frames over each other.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, lock: lock, byKey: make(map[string]int)}
	if err := s.loadSnapshot(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	w, tail, err := openWAL(filepath.Join(dir, "ledger.wal"))
	if err != nil {
		unlockDir(lock)
		return nil, err
	}
	s.wal = w
	if w.nextSeq <= s.snapshotSeq {
		w.nextSeq = s.snapshotSeq + 1
	}
	for i := range tail {
		e := tail[i]
		if e.Seq <= s.snapshotSeq {
			continue // already folded into the snapshot before a rotate crash
		}
		s.apply(e)
	}
	if err := s.scanArtifacts(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.loadFence(); err != nil {
		s.Close()
		return nil, err
	}
	// Make the directory entries themselves durable (first creation).
	if err := syncDir(dir); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// loadFence reads the durable FENCED marker, if any. The marker survives
// restarts by design: a fenced store stays fenced forever — reviving the
// old primary must never revive its write authority.
func (s *Store) loadFence() error {
	blob, err := os.ReadFile(filepath.Join(s.dir, "FENCED"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	epoch, perr := strconv.ParseUint(strings.TrimSpace(string(blob)), 10, 64)
	if perr != nil || epoch == 0 {
		return fmt.Errorf("store: corrupt FENCED marker in %s: %q", s.dir, strings.TrimSpace(string(blob)))
	}
	s.fencedAt = epoch
	return nil
}

// apply folds one recovered or appended event into the in-memory state.
// Epoch grants live in their own slice so Events() — the input to ledger
// replay — carries exactly the debit/refund history it always did.
func (s *Store) apply(e Event) {
	switch e.Kind {
	case EventCommit:
		if _, dup := s.byKey[e.Key]; dup {
			return // duplicated commit for a key: first one wins
		}
		s.commits = append(s.commits, e)
		s.byKey[e.Key] = len(s.commits) - 1
	case EventEpoch:
		s.epochs = append(s.epochs, e)
		if e.Epoch > s.writerEpoch {
			s.writerEpoch = e.Epoch
		}
	case EventSeal:
		s.seals = append(s.seals, e)
	default:
		s.events = append(s.events, e)
	}
}

func (s *Store) loadSnapshot() error {
	path := filepath.Join(s.dir, "snapshot.json")
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var snap snapshotFile
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("store: corrupt snapshot %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("store: unsupported snapshot version %d", snap.Version)
	}
	restore := func(kind EventKind, rows []snapEvent) error {
		for _, r := range rows {
			e := Event{Seq: r.Seq, Epsilon: r.Epsilon, Key: r.Key, At: time.Unix(0, r.At), Trace: r.Trace}
			switch {
			case kind == EventCommit && r.Kind == "commit":
				sha, err := hex.DecodeString(r.SHA)
				if err != nil || len(sha) != 32 {
					return fmt.Errorf("store: snapshot commit %q has bad sha %q", r.Key, r.SHA)
				}
				copy(e.SHA[:], sha)
				e.Kind = EventCommit
			case kind == EventEpoch && r.Kind == "epoch":
				if r.Epoch == 0 {
					return fmt.Errorf("store: snapshot epoch row grants epoch 0")
				}
				e.Epoch = r.Epoch
				e.Kind = EventEpoch
			case kind == EventSeal && r.Kind == "seal":
				if r.Epoch == 0 {
					return fmt.Errorf("store: snapshot seal row seals epoch 0")
				}
				e.Epoch = r.Epoch
				e.BatchSeq = r.BatchSeq
				e.Kind = EventSeal
			case kind == EventDebit && r.Kind == "debit":
				e.Kind = EventDebit
			case kind == EventDebit && r.Kind == "refund":
				e.Kind = EventRefund
			default:
				return fmt.Errorf("store: snapshot row has unexpected kind %q", r.Kind)
			}
			if (e.Kind == EventDebit || e.Kind == EventRefund) && (!(e.Epsilon > 0) || math.IsInf(e.Epsilon, 0)) {
				return fmt.Errorf("store: snapshot %s row has unusable epsilon %v", r.Kind, r.Epsilon)
			}
			s.apply(e)
		}
		return nil
	}
	if err := restore(EventDebit, snap.Events); err != nil {
		return err
	}
	if err := restore(EventCommit, snap.Commits); err != nil {
		return err
	}
	if err := restore(EventEpoch, snap.Epochs); err != nil {
		return err
	}
	if err := restore(EventSeal, snap.Seals); err != nil {
		return err
	}
	s.snapshotSeq = snap.Seq
	s.snapshotBytes = int64(len(blob))
	return nil
}

// scanArtifacts totals the artifact bytes on disk (for the store-bytes
// gauge) without reading file contents.
func (s *Store) scanArtifacts() error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "artifacts"))
	if err != nil {
		return err
	}
	s.artifactBytes = 0
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		s.artifactBytes += fi.Size()
	}
	return nil
}

// Events returns the recovered-plus-appended ledger events (debits and
// refunds) in order.
func (s *Store) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Commits returns the committed releases in commit order.
func (s *Store) Commits() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.commits))
	copy(out, s.commits)
	return out
}

// SpentEpsilon folds the event log into net spent ε, mirroring the
// ledger's clamp-at-zero refund arithmetic.
func (s *Store) SpentEpsilon() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	spent := 0.0
	for _, e := range s.events {
		switch e.Kind {
		case EventDebit:
			spent += e.Epsilon
		case EventRefund:
			spent -= e.Epsilon
			if spent < 0 {
				spent = 0
			}
		}
	}
	return spent
}

func (s *Store) appendLocked(e *Event) error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	if s.fencedAt != 0 {
		return fmt.Errorf("store: %s: writer epoch %d superseded by %d: %w", s.dir, s.writerEpoch, s.fencedAt, ErrFenced)
	}
	if e.Key == "" || len(e.Key) > maxKeyLen {
		return fmt.Errorf("store: record key must be 1..%d bytes, got %d", maxKeyLen, len(e.Key))
	}
	// The sequence number is burned even when the append FAILS: a record
	// whose fsync errored may still be durable, and if a retry reused its
	// seq the recovery's duplicate-skip would silently drop the retried —
	// acknowledged — record. A gap in the sequence is harmless (recovery
	// only requires strictly increasing); a collision under-counts ε.
	e.Seq = s.wal.nextSeq
	s.wal.nextSeq++
	if err := s.wal.append(e); err != nil {
		return fmt.Errorf("%w: %w", ErrAppend, err)
	}
	s.apply(*e)
	return nil
}

// AppendDebit makes an ε debit durable: the call returns only after the
// record is written and fsynced. Callers must invoke it BEFORE running
// the mechanism the debit pays for.
func (s *Store) AppendDebit(eps float64, key string) error {
	return s.AppendDebitTraced(eps, key, "")
}

// AppendDebitTraced is AppendDebit with the request trace ID persisted in
// the record, so recovered audit trails keep naming the request that
// spent each unit of ε across restarts.
func (s *Store) AppendDebitTraced(eps float64, key, trace string) error {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return fmt.Errorf("store: debit epsilon must be positive and finite, got %v", eps)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(&Event{Kind: EventDebit, At: time.Now(), Epsilon: eps, Key: key, Trace: trace})
}

// AppendRefund makes an ε refund durable. Callers must invoke it BEFORE
// returning the build failure that justifies the refund.
func (s *Store) AppendRefund(eps float64, key string) error {
	return s.AppendRefundTraced(eps, key, "")
}

// AppendRefundTraced is AppendRefund with the request trace ID persisted
// in the record.
func (s *Store) AppendRefundTraced(eps float64, key, trace string) error {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return fmt.Errorf("store: refund epsilon must be positive and finite, got %v", eps)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(&Event{Kind: EventRefund, At: time.Now(), Epsilon: eps, Key: key, Trace: trace})
}

// CommitRelease persists envelope in the content-addressed artifact
// store and then appends the commit record binding key (the release
// fingerprint) to the envelope's SHA-256. The artifact is durable before
// the record: a crash in between leaves an orphan file (harmless, and
// reclaimed by the next commit of the same content), never a record
// pointing at missing bytes.
func (s *Store) CommitRelease(key string, envelope []byte) error {
	return s.CommitReleaseTraced(key, envelope, "")
}

// CommitReleaseTraced is CommitRelease with the request trace ID
// persisted in the commit record.
func (s *Store) CommitReleaseTraced(key string, envelope []byte, trace string) error {
	if len(envelope) == 0 {
		return fmt.Errorf("store: refusing to commit empty envelope for %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	if i, ok := s.byKey[key]; ok {
		if s.commits[i].SHA != sha256.Sum256(envelope) {
			return fmt.Errorf("store: key %q already committed with different content", key)
		}
		return nil // idempotent re-commit
	}
	if s.fencedAt != 0 {
		return fmt.Errorf("store: %s: writer epoch %d superseded by %d: %w", s.dir, s.writerEpoch, s.fencedAt, ErrFenced)
	}
	sha, size, err := s.writeArtifact(envelope)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrAppend, err)
	}
	crash("commit.before_record")
	if err := failpoint("commit.before_record"); err != nil {
		return fmt.Errorf("%w: %w", ErrAppend, err)
	}
	if err := s.appendLocked(&Event{Kind: EventCommit, At: time.Now(), Key: key, SHA: sha, Trace: trace}); err != nil {
		return err
	}
	s.artifactBytes += size
	return nil
}

// writeArtifact stores blob as artifacts/<sha256>.json via the
// tmp → fsync → rename → dir-fsync dance, so a crash never leaves a
// partially written file under the final name. Returns the content
// address and the bytes newly added on disk (0 when deduplicated).
func (s *Store) writeArtifact(blob []byte) ([32]byte, int64, error) {
	sha := sha256.Sum256(blob)
	dir := filepath.Join(s.dir, "artifacts")
	final := filepath.Join(dir, hex.EncodeToString(sha[:])+".json")
	if _, err := os.Stat(final); err == nil {
		return sha, 0, nil // content-addressed: same name is same bytes
	}
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return sha, 0, err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return sha, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return sha, 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return sha, 0, err
	}
	crash("artifact.after_write")
	if err := failpoint("artifact.after_write"); err != nil {
		os.Remove(tmp)
		return sha, 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return sha, 0, err
	}
	crash("artifact.after_rename")
	if err := syncDir(dir); err != nil {
		return sha, 0, err
	}
	return sha, int64(len(blob)), nil
}

// LoadArtifact reads a committed envelope back by content address and
// verifies the bytes against it, so silent on-disk corruption surfaces
// as an error instead of a forged release.
func (s *Store) LoadArtifact(sha [32]byte) ([]byte, error) {
	path := filepath.Join(s.dir, "artifacts", hex.EncodeToString(sha[:])+".json")
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if sha256.Sum256(blob) != sha {
		return nil, fmt.Errorf("store: artifact %s fails its content hash", path)
	}
	return blob, nil
}

// Seals returns the stream epoch-seal records in replay order. Each seal
// binds one sealed stream epoch to the fingerprint (Key) of the release
// frozen for it and the highest ingest batch sequence it consumed; the
// served sliding window is a pure function of this history.
func (s *Store) Seals() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.seals))
	copy(out, s.seals)
	return out
}

// LastSealedEpoch returns the stream epoch of the most recent seal record
// (0 before any seal).
func (s *Store) LastSealedEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.seals) == 0 {
		return 0
	}
	return s.seals[len(s.seals)-1].Epoch
}

// AppendSeal makes a stream epoch seal durable: epoch is the 1-based
// stream epoch index being frozen, key is the fingerprint of the release
// built for it (whose debit and commit records must already be durable —
// the seal is the LAST record of a seal transaction, so a crash before it
// leaves a paid-for release outside the window, never a window entry
// without its ε), and batchSeq is the highest ingest batch sequence the
// epoch consumed. Seal epochs must be strictly increasing.
func (s *Store) AppendSeal(epoch, batchSeq uint64, key, trace string) error {
	if epoch == 0 {
		return fmt.Errorf("store: cannot seal epoch 0")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.seals); n > 0 && epoch <= s.seals[n-1].Epoch {
		return fmt.Errorf("store: seal epoch %d not after last sealed epoch %d", epoch, s.seals[n-1].Epoch)
	}
	return s.appendLocked(&Event{Kind: EventSeal, At: time.Now(), Key: key, Epoch: epoch, BatchSeq: batchSeq, Trace: trace})
}

// Epochs returns the writer-epoch grant records in replay order.
func (s *Store) Epochs() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.epochs))
	copy(out, s.epochs)
	return out
}

// WriterEpoch returns the highest writer epoch granted in the store's
// history (0 before any promotion).
func (s *Store) WriterEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writerEpoch
}

// FencedEpoch reports whether the store is fenced and, if so, the epoch of
// the writer that superseded it.
func (s *Store) FencedEpoch() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fencedAt, s.fencedAt != 0
}

// Promote grants this store the next writer epoch by appending a durable
// epoch record. The record rides the WAL like any other event — it is
// fsynced before Promote returns, replicated by log shipping, and replayed
// on recovery — so once a promotion is acknowledged every node that ever
// syncs past it knows a writer at that epoch exists. Returns the granted
// epoch. A fenced store cannot be promoted.
func (s *Store) Promote(trace string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: %s is closed", s.dir)
	}
	next := s.writerEpoch + 1
	e := &Event{Kind: EventEpoch, At: time.Now(), Key: epochKey, Epoch: next, Trace: trace}
	if err := s.appendLocked(e); err != nil {
		return 0, err
	}
	return next, nil
}

// Fence durably marks this store as superseded by a writer at epoch:
// every subsequent append (debit, refund, commit, promotion, replicated
// batch) is rejected with ErrFenced, across restarts. Fencing the live
// writer itself is refused — epoch must exceed the store's own writer
// epoch — so a confused or malicious fence request can never take down
// the node that actually holds the budget-writer role. Fence is
// idempotent and only ever raises the fence epoch.
func (s *Store) Fence(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	if epoch == 0 {
		return fmt.Errorf("store: cannot fence at epoch 0")
	}
	if epoch <= s.writerEpoch {
		return fmt.Errorf("store: refusing fence at epoch %d: this store holds writer epoch %d", epoch, s.writerEpoch)
	}
	if s.fencedAt >= epoch {
		return nil
	}
	final := filepath.Join(s.dir, "FENCED")
	tmp := final + ".tmp"
	blob := []byte(strconv.FormatUint(epoch, 10) + "\n")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.fencedAt = epoch
	return nil
}

// FramesSince re-frames every record with sequence number beyond afterSeq
// into shippable WAL frame bytes, up to roughly maxBytes (at least one
// frame is always returned when any record qualifies, so a pull always
// makes progress). It returns the frames and the sequence number of the
// last record included. Frames are re-encoded from the in-memory history
// rather than read from disk — the encoding is deterministic, so the bytes
// match what the WAL held before any compaction, and shipping keeps
// working after Compact rotates the log away.
func (s *Store) FramesSince(afterSeq uint64, maxBytes int) ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, fmt.Errorf("store: %s is closed", s.dir)
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	var pending []*Event
	for i := range s.events {
		if s.events[i].Seq > afterSeq {
			pending = append(pending, &s.events[i])
		}
	}
	for i := range s.commits {
		if s.commits[i].Seq > afterSeq {
			pending = append(pending, &s.commits[i])
		}
	}
	for i := range s.epochs {
		if s.epochs[i].Seq > afterSeq {
			pending = append(pending, &s.epochs[i])
		}
	}
	for i := range s.seals {
		if s.seals[i].Seq > afterSeq {
			pending = append(pending, &s.seals[i])
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].Seq < pending[j].Seq })
	var buf []byte
	last := afterSeq
	for _, e := range pending {
		mark := len(buf)
		buf = appendFrame(buf, e)
		if len(buf) > maxBytes && mark > 0 {
			buf = buf[:mark]
			break
		}
		last = e.Seq
	}
	return buf, last, nil
}

// AppendReplicated applies a batch of shipped WAL frames. The entire
// batch is validated before a single byte is written — strict framing
// (ParseFrames), monotonic epochs, and every commit's artifact already
// present on disk — then the accepted frames are appended to the local
// WAL verbatim, preserving the primary's sequence numbers, and fsynced as
// one batch. Frames at or below the local last sequence are skipped (a
// re-poll after a partial apply re-ships bytes the replica already has).
// Because the primary's frames are applied byte-for-byte at the same
// sequence numbers, a caught-up replica's WAL is a bit-identical prefix
// of the primary's history, and a promotion simply continues the same
// numbering. Returns the newly applied events in order.
func (s *Store) AppendReplicated(frames []byte) ([]Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: %s is closed", s.dir)
	}
	if s.fencedAt != 0 {
		return nil, fmt.Errorf("store: %s: writer epoch %d superseded by %d: %w", s.dir, s.writerEpoch, s.fencedAt, ErrFenced)
	}
	events, err := ParseFrames(frames)
	if err != nil {
		return nil, fmt.Errorf("store: rejecting replicated batch: %w", err)
	}
	lastSeq := s.wal.nextSeq - 1
	epoch := s.writerEpoch
	sealEpoch := uint64(0)
	if n := len(s.seals); n > 0 {
		sealEpoch = s.seals[n-1].Epoch
	}
	accepted := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Seq <= lastSeq {
			continue // already applied (overlapping re-ship)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case EventEpoch:
			if e.Epoch <= epoch {
				return nil, fmt.Errorf("store: rejecting replicated batch: epoch record grants %d but local writer epoch is already %d", e.Epoch, epoch)
			}
			epoch = e.Epoch
		case EventSeal:
			if e.Epoch <= sealEpoch {
				return nil, fmt.Errorf("store: rejecting replicated batch: seal record for epoch %d but local last sealed epoch is already %d", e.Epoch, sealEpoch)
			}
			sealEpoch = e.Epoch
		case EventCommit:
			if !s.hasArtifactLocked(e.SHA) {
				return nil, fmt.Errorf("store: rejecting replicated batch: commit %q references missing artifact %s (fetch artifacts before applying frames)", e.Key, hex.EncodeToString(e.SHA[:]))
			}
		}
		accepted = append(accepted, e)
	}
	if len(accepted) == 0 {
		return nil, nil
	}
	buf := make([]byte, 0, len(frames))
	for i := range accepted {
		buf = appendFrame(buf, &accepted[i])
	}
	if err := s.wal.appendRaw(buf); err != nil {
		// Durability of the batch is unknown; in-memory state is not
		// advanced, so the next poll re-ships the same frames. If the bytes
		// did land, recovery's duplicate-skip folds the re-append away.
		return nil, fmt.Errorf("%w: %w", ErrAppend, err)
	}
	for _, e := range accepted {
		s.apply(e)
	}
	s.wal.nextSeq = accepted[len(accepted)-1].Seq + 1
	return accepted, nil
}

// AddrString returns the hex content address for sha.
func AddrString(sha [32]byte) string { return hex.EncodeToString(sha[:]) }

// VerifyAddr reports whether blob hashes to the hex content address.
func VerifyAddr(shaHex string, blob []byte) bool {
	want, err := parseSHA(shaHex)
	if err != nil {
		return false
	}
	return sha256.Sum256(blob) == want
}

// parseSHA decodes a 64-hex-digit SHA-256 content address.
func parseSHA(hexStr string) ([32]byte, error) {
	var sha [32]byte
	raw, err := hex.DecodeString(hexStr)
	if err != nil || len(raw) != 32 {
		return sha, fmt.Errorf("store: %q is not a sha256 content address", hexStr)
	}
	copy(sha[:], raw)
	return sha, nil
}

func (s *Store) hasArtifactLocked(sha [32]byte) bool {
	path := filepath.Join(s.dir, "artifacts", hex.EncodeToString(sha[:])+".json")
	_, err := os.Stat(path)
	return err == nil
}

// HasArtifact reports whether the artifact with the given hex content
// address is present on disk.
func (s *Store) HasArtifact(shaHex string) bool {
	sha, err := parseSHA(shaHex)
	if err != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasArtifactLocked(sha)
}

// PutArtifact stores blob under its hex content address, verifying the
// hash on receipt — a replica must never trust shipped artifact bytes
// without proving they are the bytes the commit record names.
func (s *Store) PutArtifact(shaHex string, blob []byte) error {
	want, err := parseSHA(shaHex)
	if err != nil {
		return err
	}
	if sha256.Sum256(blob) != want {
		return fmt.Errorf("store: artifact bytes do not hash to %s", shaHex)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	_, size, err := s.writeArtifact(blob)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrAppend, err)
	}
	s.artifactBytes += size
	return nil
}

// ArtifactByAddr loads a committed envelope by hex content address,
// verifying the bytes against it (the log-shipping artifact fetch path).
func (s *Store) ArtifactByAddr(shaHex string) ([]byte, error) {
	sha, err := parseSHA(shaHex)
	if err != nil {
		return nil, err
	}
	return s.LoadArtifact(sha)
}

// Compact folds the current state into a fresh snapshot and rotates the
// WAL. Recovery after a crash at any point is consistent: the snapshot
// becomes visible atomically (rename), and stale WAL records left by a
// crash before the rotate are skipped via the snapshot's seq cursor.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	snap := snapshotFile{Version: snapshotVersion, Seq: s.wal.nextSeq - 1}
	for _, e := range s.events {
		snap.Events = append(snap.Events, snapEvent{
			Seq: e.Seq, Kind: e.Kind.String(), Epsilon: e.Epsilon, Key: e.Key, At: e.At.UnixNano(),
			Trace: e.Trace})
	}
	for _, e := range s.commits {
		snap.Commits = append(snap.Commits, snapEvent{
			Seq: e.Seq, Kind: e.Kind.String(), Key: e.Key, At: e.At.UnixNano(),
			SHA: hex.EncodeToString(e.SHA[:]), Trace: e.Trace})
	}
	for _, e := range s.epochs {
		snap.Epochs = append(snap.Epochs, snapEvent{
			Seq: e.Seq, Kind: e.Kind.String(), Key: e.Key, At: e.At.UnixNano(),
			Epoch: e.Epoch, Trace: e.Trace})
	}
	for _, e := range s.seals {
		snap.Seals = append(snap.Seals, snapEvent{
			Seq: e.Seq, Kind: e.Kind.String(), Key: e.Key, At: e.At.UnixNano(),
			Epoch: e.Epoch, BatchSeq: e.BatchSeq, Trace: e.Trace})
	}
	blob, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	final := filepath.Join(s.dir, "snapshot.json")
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	crash("snapshot.after_rename")
	s.snapshotSeq = snap.Seq
	s.snapshotBytes = int64(len(blob))
	return s.wal.rotate()
}

// SizeBytes returns the store's on-disk footprint: WAL + snapshot +
// artifacts. It is the /metrics store-bytes gauge.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.size + s.snapshotBytes + s.artifactBytes
}

// LastSeq returns the highest WAL sequence number issued so far (0 on a
// fresh store). It is the /metrics WAL-seq gauge.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.nextSeq - 1
}

// SetFsyncObserver installs fn (nil to clear) to receive the duration,
// in seconds, of every WAL fsync. The server points this at a latency
// histogram; fn runs on the append path under the store lock, so it must
// be cheap and must not call back into the store.
func (s *Store) SetFsyncObserver(fn func(seconds float64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal.fsyncObs = fn
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the WAL file handle. Close is idempotent; every
// acknowledged mutation is already durable, so Close never loses data.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.wal.close()
	if uerr := unlockDir(s.lock); err == nil {
		err = uerr
	}
	return err
}

// syncDir fsyncs a directory so renames and creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
