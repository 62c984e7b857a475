package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"spd3/client"
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
	st, err := Open(root)
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
	st, err := Open(root)
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
	manifest := &Manifest{ID: "jfault", Tenant: "default", State: client.StateQueued}

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

// TestSweepVsSubmitRace hammers the GC/submit interleaving the sweep
// must survive: a garbage blob sits in the CAS, a sweep runs, and a
// concurrent submit dedups onto that same blob and publishes a manifest
// naming it. Whatever order the two land in, the manifest's segment
// must remain openable — the sweep may never delete a blob a live
// manifest references (the resubmit-after-expiry case).
func TestSweepVsSubmitRace(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		data := []byte(fmt.Sprintf("segment-%d-payload", i))
		// Orphan the blob first: stored, referenced by no manifest.
		if _, _, err := st.Put(data); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, serr := st.Sweep(); serr != nil {
				t.Errorf("sweep: %v", serr)
			}
		}()
		st.BeginWrite()
		ref, _, err := st.Put(data)
		if err != nil {
			st.EndWrite()
			t.Fatal(err)
		}
		m := &Manifest{ID: fmt.Sprintf("race-%d", i), Tenant: "default",
			State: client.StateQueued, Segments: []SegmentRef{ref}}
		if err := st.WriteManifest(m); err != nil {
			st.EndWrite()
			t.Fatal(err)
		}
		st.EndWrite()
		wg.Wait()
		rc, err := st.Open(ref)
		if err != nil {
			t.Fatalf("iteration %d: live blob swept out from under its manifest: %v", i, err)
		}
		got, _ := io.ReadAll(rc)
		rc.Close()
		if !bytes.Equal(got, data) {
			t.Fatalf("iteration %d: blob content corrupted", i)
		}
		if err := st.DeleteManifest(m.ID); err != nil {
			t.Fatal(err)
		}
	}
}
