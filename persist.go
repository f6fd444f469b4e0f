package privtree

import (
	"privtree/internal/store"
)

// Store is a crash-safe persistence root for one session: an append-only,
// fsync-on-debit write-ahead log of privacy-ledger events (debits,
// refunds, release commits) plus a content-addressed file store holding
// each release's artifact: the binary arena artifact for spatial releases
// (see Release.MarshalBinary), the JSON envelope for other kinds and for
// commits written before binary artifacts existed. Attach one to a fresh Session with
// WithStore — or use OpenSession — and the session's guarantee becomes
// durable: a debit reaches disk before its mechanism runs, a refund
// before its error returns, and a crash at ANY point recovers to a spent
// ε that covers every acknowledged debit. See the package documentation's
// "Durability and crash safety" section for the privacy argument.
//
// A Store is safe for concurrent use. Its directory layout (a WAL, a
// compaction snapshot, and an artifacts directory) is an implementation
// detail of internal/store.
type Store struct {
	inner *store.Store
}

// OpenStore opens (creating if needed) the store rooted at dir and
// recovers its state by one sequential pass: the compaction snapshot, the
// write-ahead log's valid record prefix (a torn tail from a crashed
// append is truncated away), and the artifact inventory.
func OpenStore(dir string) (*Store, error) {
	inner, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Store{inner: inner}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.inner.Dir() }

// SizeBytes returns the store's on-disk footprint (WAL + snapshot +
// artifacts); servers export it as a store-bytes gauge.
func (st *Store) SizeBytes() int64 { return st.inner.SizeBytes() }

// LastSeq returns the highest write-ahead-log sequence number issued so
// far (0 on a fresh store); servers export it as a WAL-seq gauge, and
// audit entries reference these numbers.
func (st *Store) LastSeq() uint64 { return st.inner.LastSeq() }

// SetFsyncObserver installs fn (nil to clear) to receive the duration,
// in seconds, of every WAL fsync — the hook servers point at a latency
// histogram. fn runs on the append path and must be cheap and must not
// call back into the store.
func (st *Store) SetFsyncObserver(fn func(seconds float64)) { st.inner.SetFsyncObserver(fn) }

// Compact folds the ledger history into a fresh snapshot and rotates the
// write-ahead log. State is preserved exactly; a crash during compaction
// recovers consistently (the snapshot becomes visible atomically, and
// stale WAL records are skipped by its sequence cursor).
func (st *Store) Compact() error { return st.inner.Compact() }

// WriterEpoch returns the highest writer epoch granted in the store's
// replicated history (0 before any promotion). Exactly one store per
// dataset may hold the current epoch as a live budget-writer; see the
// package documentation's "Replication and failover" section.
func (st *Store) WriterEpoch() uint64 { return st.inner.WriterEpoch() }

// FencedEpoch reports whether this store has been durably fenced — a
// writer at the returned epoch superseded it — in which case every local
// mutation fails with a fenced error, across restarts.
func (st *Store) FencedEpoch() (uint64, bool) { return st.inner.FencedEpoch() }

// Promote grants this store the next writer epoch via a durable,
// replicated WAL record and returns it. trace optionally links the grant
// to the request trace that caused the promotion. A fenced store cannot
// be promoted.
func (st *Store) Promote(trace string) (uint64, error) { return st.inner.Promote(trace) }

// Fence durably marks this store as superseded by a writer at epoch:
// every later append is rejected, across restarts. Fencing at an epoch
// the store itself holds (or lower) is refused, so a stray fence request
// cannot take down the live writer.
func (st *Store) Fence(epoch uint64) error { return st.inner.Fence(epoch) }

// WALFrames returns up to roughly maxBytes of CRC-framed ledger records
// with sequence numbers after afterSeq, exactly as they appear in the
// write-ahead log, plus the last sequence number included. It is the
// log-shipping read side: a replica applies the frames verbatim with
// Session.ApplyReplicated. maxBytes <= 0 selects a sensible default; when
// any record qualifies at least one frame is returned, so pulls always
// make progress.
func (st *Store) WALFrames(afterSeq uint64, maxBytes int) ([]byte, uint64, error) {
	return st.inner.FramesSince(afterSeq, maxBytes)
}

// LastSealedEpoch returns the newest stream epoch sealed into this
// store's history (0 before any seal); see Session.AppendSeal for the
// seal record's contract. Servers export it per dataset, and replicas
// compare it against the primary's to report epochs-behind.
func (st *Store) LastSealedEpoch() uint64 { return st.inner.LastSealedEpoch() }

// HasArtifact reports whether the artifact with the given hex SHA-256
// content address is already present in the artifact store.
func (st *Store) HasArtifact(shaHex string) bool { return st.inner.HasArtifact(shaHex) }

// PutArtifact stores artifact bytes under their hex SHA-256 content
// address, verifying the hash on receipt; mismatched bytes are rejected.
// Replicas call it for each artifact referenced by shipped commit records
// before applying the frames.
func (st *Store) PutArtifact(shaHex string, blob []byte) error {
	return st.inner.PutArtifact(shaHex, blob)
}

// Artifact loads a committed artifact by hex SHA-256 content address and
// verifies the bytes against it — the serving side of replicated artifact
// fetch.
func (st *Store) Artifact(shaHex string) ([]byte, error) { return st.inner.ArtifactByAddr(shaHex) }

// Close releases the store's file handles. Every acknowledged operation
// is already durable, so Close is never a flush barrier. Idempotent.
func (st *Store) Close() error { return st.inner.Close() }
