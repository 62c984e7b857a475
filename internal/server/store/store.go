// Package store is spd3d's persistent trace store: a content-addressed
// blob area for trace segments, the verdict records of their replays,
// and one manifest per job. It knows
// nothing of HTTP or of the job lifecycle — a manifest's State is a
// string it persists, not a machine it runs — so it can be opened,
// filled, swept and fault-injected alone.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"spd3/client"
)

// SegmentRef names one stored trace segment by content hash. Jobs hold
// ordered lists of these; the bytes live once in the CAS regardless of
// how many segments (or jobs) share them — an amplified trace's repeated
// finish scopes collapse to a single blob.
type SegmentRef struct {
	Hash  string `json:"hash"`
	Bytes int64  `json:"bytes"`
}

// Manifest is the durable record of one job: identity, input (segment
// refs into the CAS), lifecycle state (one of client's State names),
// and — once terminal — the error or the full result envelope. It is
// the unit of crash recovery: a manifest whose state is queued or
// running at daemon startup is re-queued (the segments are still in the
// CAS), and a terminal manifest serves /v2/jobs/{id}/result forever
// until the TTL sweep retires it.
type Manifest struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant"`
	Detector   string `json:"detector"`
	Sequential bool   `json:"sequential"`
	WithStats  bool   `json:"with_stats,omitempty"`
	// Sampling is the job's per-request sampling override spec; empty
	// means the tenant's configured (or daemon default) sampling. It is
	// persisted so a resumed job replays under the spec it was submitted
	// with.
	Sampling   string       `json:"sampling,omitempty"`
	Sharded    bool         `json:"sharded"`
	Unsplit    bool         `json:"unsplit,omitempty"`
	Segments   []SegmentRef `json:"segments"`
	TraceBytes int64        `json:"trace_bytes"`
	State      string       `json:"state"`
	// Error and ErrorStatus record a failed job's cause and the HTTP
	// status /result replays for it.
	Error       string         `json:"error,omitempty"`
	ErrorStatus int            `json:"error_status,omitempty"`
	Result      *client.Report `json:"result,omitempty"`
	CreatedAt   time.Time      `json:"created_at"`
	UpdatedAt   time.Time      `json:"updated_at"`
}

// StoredBytes returns the job's total stored segment bytes — the number
// its tenant's stored-bytes quota is charged (before CAS dedup, so a
// tenant cannot launder quota through self-similar traces).
func (m *Manifest) StoredBytes() int64 {
	var n int64
	for _, ref := range m.Segments {
		n += ref.Bytes
	}
	return n
}

// Store is the daemon's persistent trace store: a content-addressed
// blob area for segments plus a manifest directory for jobs.
//
// Layout under root:
//
//	cas/<hh>/<hash>   segment blobs, named by their SHA-256, sharded
//	                  by the first hash byte to keep directories small
//	verdicts/<hh>/<hash>.<detector>
//	                  one verdict record per blob and detector: bytes
//	                  the daemon encodes and checks, opaque here
//	jobs/<id>.json    one manifest per job, written atomically
//	tmp/              staging for all three, same filesystem so rename
//	                  is atomic
//
// Durability: blobs, records and manifests are fsync'd before the
// rename that publishes them (publish is the one place that happens),
// so a crash leaves either the old state or the new one, never a torn
// file.
// Leftover tmp entries from a crash are swept at open. Blob space is
// reclaimed by mark-and-sweep (Sweep): a blob is garbage when no
// manifest references it, and deleting manifests (DELETE, TTL expiry in
// Server.GC, refused submits) is what creates garbage. A verdict record
// is garbage once its blob is: records stay out of the blob index and
// its gauges, and Sweep deletes every record whose blob is not indexed.
type Store struct {
	root string

	mu      sync.Mutex
	blobs   map[string]int64 // hash → size, mirrors cas/ contents
	bytes   int64            // sum of blobs
	writers int              // in-flight submits; blocks blob sweeps
}

// Open opens (creating if needed) a store rooted at dir and scans
// the CAS to rebuild the in-memory blob index. Orphaned tmp files from
// a crashed daemon are removed.
func Open(dir string) (*Store, error) {
	s := &Store{root: dir, blobs: make(map[string]int64)}
	for _, sub := range []string{"cas", "jobs", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range tmps {
		os.Remove(filepath.Join(dir, "tmp", e.Name()))
	}
	err = filepath.WalkDir(filepath.Join(dir, "cas"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		s.blobs[d.Name()] = info.Size()
		s.bytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning cas: %w", err)
	}
	return s, nil
}

// Blobs returns the CAS occupancy gauges: blob count and total bytes.
func (s *Store) Blobs() (count int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs), s.bytes
}

// BeginWrite/EndWrite bracket a job submit. While any submit is in
// flight, Sweep will not delete blobs: a segment is unreferenced between
// its Put and the manifest write that names it, and this coarse guard is
// what keeps a concurrent GC from collecting it in that window.
func (s *Store) BeginWrite() {
	s.mu.Lock()
	s.writers++
	s.mu.Unlock()
}

// EndWrite releases a BeginWrite.
func (s *Store) EndWrite() {
	s.mu.Lock()
	s.writers--
	s.mu.Unlock()
}

func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.root, "cas", hash[:2], hash)
}

// publish is the store's one durable write. It stages a file in tmp/,
// has fill write it and name its destination, then fsyncs, closes and
// renames it there (creating the destination directory), so dst either
// keeps its old content or holds all of the new. A fill error (returned
// as is), an empty dst (fill found nothing worth keeping) or any
// failing step discards the staged file.
func (s *Store) publish(fill func(w io.Writer) (dst string, err error)) error {
	f, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "stage-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	published := false
	defer func() {
		if !published {
			os.Remove(f.Name())
		}
	}()
	dst, err := fill(f)
	if err != nil || dst == "" {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(f.Name(), dst); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	published = true
	return nil
}

// publishBytes publishes data at dst.
func (s *Store) publishBytes(dst string, data []byte) error {
	return s.publish(func(w io.Writer) (string, error) {
		_, err := w.Write(data)
		return dst, err
	})
}

// has reports whether the index already holds hash.
func (s *Store) has(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, have := s.blobs[hash]
	return have
}

// index records a published blob. A racing put of the same bytes
// published the same content, so the second record is a no-op.
func (s *Store) index(ref SegmentRef) {
	s.mu.Lock()
	if _, have := s.blobs[ref.Hash]; !have {
		s.blobs[ref.Hash] = ref.Bytes
		s.bytes += ref.Bytes
	}
	s.mu.Unlock()
}

// PutStream stores r's full contents as one blob, hashing while
// spilling so nothing is held in memory, and returns its ref. dup
// reports a CAS hit: the bytes were already stored (by this job's
// earlier segments, another job, or a previous daemon run) and the
// spilled copy was discarded. A read error from r is returned as is.
func (s *Store) PutStream(r io.Reader) (ref SegmentRef, dup bool, err error) {
	err = s.publish(func(w io.Writer) (string, error) {
		h := sha256.New()
		n, err := io.Copy(io.MultiWriter(w, h), r)
		if err != nil {
			return "", err
		}
		ref = SegmentRef{Hash: hex.EncodeToString(h.Sum(nil)), Bytes: n}
		if dup = s.has(ref.Hash); dup {
			return "", nil
		}
		return s.blobPath(ref.Hash), nil
	})
	if err != nil {
		return SegmentRef{}, false, err
	}
	if !dup {
		s.index(ref)
	}
	return ref, dup, nil
}

// Put stores one in-memory segment. The hash is computed first, so a
// CAS hit costs no I/O at all — the common case for amplified traces,
// whose repeated finish scopes are byte-identical segments.
func (s *Store) Put(data []byte) (ref SegmentRef, dup bool, err error) {
	sum := sha256.Sum256(data)
	ref = SegmentRef{Hash: hex.EncodeToString(sum[:]), Bytes: int64(len(data))}
	if s.has(ref.Hash) {
		return ref, true, nil
	}
	if err := s.publishBytes(s.blobPath(ref.Hash), data); err != nil {
		return SegmentRef{}, false, err
	}
	s.index(ref)
	return ref, false, nil
}

// Open returns a reader over one stored segment.
func (s *Store) Open(ref SegmentRef) (io.ReadCloser, error) {
	return os.Open(s.blobPath(ref.Hash))
}

func (s *Store) verdictPath(hash, detector string) string {
	return filepath.Join(s.root, "verdicts", hash[:2], hash+"."+detector)
}

// PutVerdict publishes data as the verdict record of blob hash under
// detector, replacing any record there.
func (s *Store) PutVerdict(hash, detector string, data []byte) error {
	return s.publishBytes(s.verdictPath(hash, detector), data)
}

// Verdict returns the verdict record of blob hash under detector; an
// error satisfying errors.Is(err, fs.ErrNotExist) means there is none.
func (s *Store) Verdict(hash, detector string) ([]byte, error) {
	return os.ReadFile(s.verdictPath(hash, detector))
}

// WriteManifest persists m atomically over jobs/<id>.json. Every state
// transition goes through here, so the on-disk manifest is always
// internally consistent.
func (s *Store) WriteManifest(m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.publishBytes(s.manifestPath(m.ID), data)
}

func (s *Store) manifestPath(id string) string {
	return filepath.Join(s.root, "jobs", id+".json")
}

// LoadManifests reads every job manifest on disk — the daemon's restart
// path. Unparseable manifests are skipped, not fatal: one torn file
// (impossible under the atomic write, but disks lie) must not brick the
// store.
func (s *Store) LoadManifests() ([]*Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []*Manifest
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.root, "jobs", e.Name()))
		if err != nil {
			continue
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil || m.ID == "" {
			continue
		}
		out = append(out, &m)
	}
	return out, nil
}

// DeleteManifest removes one job's manifest. Its blobs become garbage
// only if no other manifest references them; the next Sweep reclaims
// those.
func (s *Store) DeleteManifest(id string) error {
	err := os.Remove(s.manifestPath(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Sweep is the store's garbage collector: it deletes every blob no
// manifest references, then every verdict record whose blob is not in
// the index — the swept blobs' and any orphan's. It does nothing while
// any submit is in flight (BeginWrite), because a just-put segment is
// unreferenced until its manifest lands.
func (s *Store) Sweep() (sweptBlobs int, err error) {
	// The sweep runs entirely under the mutex: with the lock held no
	// submit can BeginWrite, and writers == 0 means none is mid-spill, so
	// segment references cannot appear between the live-set scan below
	// and the file removals — a submit that dedups onto a blob this sweep
	// is about to delete would leave a manifest referencing a file that
	// no longer exists. Manifest directories are small, so the I/O held
	// under the lock is a handful of reads and unlinks.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writers > 0 {
		return 0, nil
	}
	manifests, err := s.LoadManifests()
	if err != nil {
		return 0, err
	}
	live := make(map[string]struct{})
	for _, m := range manifests {
		for _, ref := range m.Segments {
			live[ref.Hash] = struct{}{}
		}
	}
	for hash, n := range s.blobs {
		if _, ok := live[hash]; ok {
			continue
		}
		if rerr := os.Remove(s.blobPath(hash)); rerr != nil && !os.IsNotExist(rerr) {
			continue
		}
		delete(s.blobs, hash)
		s.bytes -= n
		sweptBlobs++
	}
	// A record only needs its blob to be sound, but a replay still
	// running for an upload that failed can write one after its blob
	// went: the next sweep finds it here.
	filepath.WalkDir(filepath.Join(s.root, "verdicts"), func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // an unreadable record directory waits for the next sweep
		if err != nil || d.IsDir() {
			return nil
		}
		hash, _, _ := strings.Cut(d.Name(), ".")
		if _, ok := s.blobs[hash]; !ok {
			os.Remove(path)
		}
		return nil
	})
	return sweptBlobs, nil
}
