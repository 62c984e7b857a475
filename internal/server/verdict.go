// Verdict records: what one stored segment's replay under one detector
// found, kept beside its blob so that no job replays that segment under
// that detector again.
//
// A record is sound because a segment's verdict is a pure function of
// its bytes, the detector, sampling being off and the replay's Limits:
// one run certifies every schedule of its input (PAPER §5, Theorem 1),
// and the splitter cuts only where everything before the cut happens
// before everything after it, so a segment's races and counters depend
// on nothing outside it. The blob's SHA-256 names the bytes, the store
// path the detector, detect.VerdictVersion what the detector reports,
// and the record itself the Limits. Only unsampled replays under a
// listed detector (detect.Names) that found at most MaxRacesPerReport
// races leave one.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"spd3/client"
	"spd3/internal/detect"
	"spd3/internal/stats"
	"spd3/internal/trace"
)

// verdictRecord is one segment's verdict under one detector: the races
// its replay streamed, in emission order, and its stats snapshot.
type verdictRecord struct {
	Version int            `json:"version"`
	Limits  recordLimits   `json:"limits"`
	Races   []client.Race  `json:"races"`
	Stats   stats.Snapshot `json:"stats"`
}

// recordLimits is the part of trace.Limits a verdict depends on.
type recordLimits struct {
	MaxRegionElems int64 `json:"max_region_elems"`
	MaxTotalElems  int64 `json:"max_total_elems"`
}

func limitsOf(lim trace.Limits) recordLimits {
	return recordLimits{lim.MaxRegionElems, lim.MaxTotalElems}
}

// recordFile is a record as stored: its body's exact bytes and their
// SHA-256, so a flipped bit anywhere in the body is a miss.
type recordFile struct {
	Body json.RawMessage `json:"body"`
	Sum  string          `json:"sum"`
}

func encodeRecord(rec verdictRecord) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	return json.Marshal(recordFile{Body: body, Sum: hex.EncodeToString(sum[:])})
}

// decodeRecord returns the record data holds if a replay under lim may
// use it, or why not.
func decodeRecord(data []byte, lim trace.Limits) (verdictRecord, error) {
	var f recordFile
	if err := json.Unmarshal(data, &f); err != nil {
		return verdictRecord{}, err
	}
	if sum := sha256.Sum256(f.Body); hex.EncodeToString(sum[:]) != f.Sum {
		return verdictRecord{}, errors.New("checksum mismatch")
	}
	var rec verdictRecord
	if err := json.Unmarshal(f.Body, &rec); err != nil {
		return verdictRecord{}, err
	}
	if rec.Version != detect.VerdictVersion {
		return verdictRecord{}, fmt.Errorf("version %d, want %d", rec.Version, detect.VerdictVersion)
	}
	if rec.Limits != limitsOf(lim) {
		return verdictRecord{}, fmt.Errorf("limits %+v, want %+v", rec.Limits, limitsOf(lim))
	}
	return rec, nil
}

// readRecord returns the usable record of blob hash under detector. A
// record that is there but unusable is logged; either way the caller
// replays and writes a new one.
func (s *Server) readRecord(hash, detector string, lim trace.Limits) (verdictRecord, bool) {
	data, err := s.store.Verdict(hash, detector)
	if err == nil {
		var rec verdictRecord
		if rec, err = decodeRecord(data, lim); err == nil {
			return rec, true
		}
	}
	if !errors.Is(err, fs.ErrNotExist) {
		s.logf("segment %s: %s verdict record refused, replaying: %v", hash, detector, err)
	}
	return verdictRecord{}, false
}

// writeRecord stores a replay's verdict. A record that cannot be
// written costs the next job a replay, not this one its verdict.
func (s *Server) writeRecord(hash, detector string, rec verdictRecord) {
	data, err := encodeRecord(rec)
	if err == nil {
		err = s.store.PutVerdict(hash, detector, data)
	}
	if err != nil {
		s.logf("segment %s: writing %s verdict record: %v", hash, detector, err)
	}
}
