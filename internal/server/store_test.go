package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// storeFiles lists every regular file under the store root, relative to
// it, with its size.
func storeFiles(t *testing.T, root string) map[string]int64 {
	t.Helper()
	files := map[string]int64{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel] = info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// breakDir replaces the directory at path with a regular file — a fault
// that fails every create, mkdir and rename beneath it with ENOTDIR,
// root or not — and returns the repair.
func breakDir(t *testing.T, path string) (repair func()) {
	t.Helper()
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
}

// checkReopen reopens the store at root and requires the rebuilt index
// to equal the blobs actually on disk.
func checkReopen(t *testing.T, root string) {
	t.Helper()
	st, err := openStore(root)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	onDisk := map[string]int64{}
	for rel, size := range storeFiles(t, root) {
		if dir := filepath.Dir(rel); filepath.Dir(dir) == "cas" {
			onDisk[filepath.Base(rel)] = size
		}
	}
	if !maps.Equal(st.blobs, onDisk) {
		t.Errorf("reopened index %v, files on disk %v", st.blobs, onDisk)
	}
}

// TestStorePublishFaults forces the single publish step to fail at its
// first stage (tmp/ unusable) and at its last (the blob's cas/<hh>
// directory unusable) for every caller. A failed publish returns an
// error, leaves the index and the directory tree exactly as they were,
// and a reopened store agrees with the disk.
func TestStorePublishFaults(t *testing.T) {
	root := t.TempDir()
	st, err := openStore(root)
	if err != nil {
		t.Fatal(err)
	}
	kept := []byte("a blob published before any fault")
	if _, _, err := st.Put(kept); err != nil {
		t.Fatal(err)
	}
	data := []byte("segment payload the faulty store must refuse")
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	manifest := &Manifest{ID: "jfault", Tenant: "default", State: StateQueued}

	puts := map[string]func() error{
		"Put":           func() error { _, _, err := st.Put(data); return err },
		"PutStream":     func() error { _, _, err := st.PutStream(bytes.NewReader(data)); return err },
		"WriteManifest": func() error { return st.WriteManifest(manifest) },
	}
	for _, fault := range []struct {
		dir     string
		callers []string
	}{
		{"tmp", []string{"Put", "PutStream", "WriteManifest"}},
		{filepath.Join("cas", hash[:2]), []string{"Put", "PutStream"}},
	} {
		repair := breakDir(t, filepath.Join(root, fault.dir))
		blobs0, bytes0 := st.Blobs()
		files0 := storeFiles(t, root)
		for _, name := range fault.callers {
			if err := puts[name](); err == nil {
				t.Errorf("%s broken: %s succeeded", fault.dir, name)
			}
			if st.has(hash) {
				t.Errorf("%s broken: index gained the hash after a failed %s", fault.dir, name)
			}
			if n, b := st.Blobs(); n != blobs0 || b != bytes0 {
				t.Errorf("%s broken: %s moved Blobs() %d/%d → %d/%d", fault.dir, name, blobs0, bytes0, n, b)
			}
			if files := storeFiles(t, root); !maps.Equal(files, files0) {
				t.Errorf("%s broken: %s left the tree as %v, was %v", fault.dir, name, files, files0)
			}
		}
		repair()
		checkReopen(t, root)
	}

	// With the faults undone the same calls go through.
	for name, put := range puts {
		if err := put(); err != nil {
			t.Errorf("after repair: %s: %v", name, err)
		}
	}
	if !st.has(hash) {
		t.Error("after repair: blob not indexed")
	}
	checkReopen(t, root)
}

// TestSubmitManifestFault breaks the last step of a submit: the segments
// spill, the quota is charged, and then the manifest cannot be
// published. The submit answers 500 and unwinds completely — no job, no
// queue slot, no stored bytes, nothing in the drain set — and the
// spilled blobs are garbage the next sweep reclaims.
func TestSubmitManifestFault(t *testing.T) {
	root := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: root, ShardWorkers: 2})
	defer s.Close()
	tr := recordRacyMonteCarlo(t)

	repair := breakDir(t, filepath.Join(root, "jobs"))
	resp, body := submitV2(t, ts.URL, "?detector=spd3", "", tr)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit with jobs/ broken = %d, want 500\n%s", resp.StatusCode, body)
	}
	if n := len(listJobs(t, ts.URL, "").Jobs); n != 0 {
		t.Errorf("failed submit left %d jobs in the table", n)
	}
	if jobs, stored := tenantGauges(s, "default"); jobs != 0 || stored != 0 {
		t.Errorf("failed submit holds %d queue slots and %d stored bytes", jobs, stored)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after a failed submit", n)
	}
	if n, _ := s.Store().Blobs(); n == 0 {
		t.Fatal("no blobs spilled before the manifest write; the fault hit too early to test the unwind")
	}

	repair()
	if _, err := s.Store().Sweep(); err != nil {
		t.Fatal(err)
	}
	if n, b := s.Store().Blobs(); n != 0 || b != 0 {
		t.Errorf("spilled blobs not reclaimed: %d blobs / %d bytes", n, b)
	}
	checkReopen(t, root)

	// The daemon is whole again: the same upload now runs to a verdict.
	resp, body = submitV2(t, ts.URL, "?detector=spd3", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after repair = %d\n%s", resp.StatusCode, body)
	}
	id := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s, id) == StateDone }, "job done after repair")
}
