package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openDurable opens a WAL-backed store rooted in a temp dir and returns the
// snapshot path alongside it.
func openDurable(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// activeSegment returns the path of the highest-numbered WAL segment for
// the store rooted at path — the file a torn or corrupt tail lives in.
func activeSegment(t *testing.T, path string) string {
	t.Helper()
	segs, err := listSegments(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segments under %s.wal", path)
	}
	return segs[len(segs)-1].path
}

// TestWALReplayRestoresAcknowledgedWrites is the core durability contract:
// a store abandoned without any Snapshot (a hard kill) loses nothing that
// Put or Delete acknowledged.
func TestWALReplayRestoresAcknowledgedWrites(t *testing.T) {
	s, path := openDurable(t)
	if !s.Durable() {
		t.Fatal("Open did not attach a WAL")
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Put("doc", fmt.Sprintf("k%02d", i), doc{Name: "n", Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one (version must survive too) and delete another.
	if _, err := s.Put("doc", "k03", doc{Name: "updated", Count: 103}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("doc", "k07"); err != nil {
		t.Fatal(err)
	}
	// No Snapshot, no Close: the process dies here.

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count("doc"); got != 19 {
		t.Fatalf("Count after replay = %d, want 19", got)
	}
	var d doc
	e, err := s2.Get("doc", "k03", &d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "updated" || d.Count != 103 {
		t.Fatalf("k03 after replay = %+v", d)
	}
	if e.Version != 2 {
		t.Fatalf("k03 version after replay = %d, want 2", e.Version)
	}
	if s2.Exists("doc", "k07") {
		t.Fatal("deleted entity resurrected by replay")
	}
}

// TestWALTruncatedTailDiscarded simulates a write torn mid-record by the
// crash: the partial record is dropped, every record before it survives,
// and the store accepts new writes afterwards.
func TestWALTruncatedTailDiscarded(t *testing.T) {
	s, path := openDurable(t)
	for i := 0; i < 10; i++ {
		if _, err := s.Put("doc", fmt.Sprintf("k%d", i), doc{Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := activeSegment(t, path)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the final record.
	if err := os.Truncate(walPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count("doc"); got != 9 {
		t.Fatalf("Count after torn tail = %d, want 9", got)
	}
	if s2.Exists("doc", "k9") {
		t.Fatal("torn record partially applied")
	}
	// The log is usable again: a write after recovery survives a reopen.
	if _, err := s2.Put("doc", "post-crash", doc{Count: 99}); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if !s3.Exists("doc", "post-crash") || s3.Count("doc") != 10 {
		t.Fatalf("post-recovery write lost; count = %d", s3.Count("doc"))
	}
}

// TestWALCorruptTailDiscarded flips a byte in the last record's payload:
// the checksum catches it and replay keeps everything before it.
func TestWALCorruptTailDiscarded(t *testing.T) {
	s, path := openDurable(t)
	for i := 0; i < 5; i++ {
		if _, err := s.Put("doc", fmt.Sprintf("k%d", i), doc{Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := activeSegment(t, path)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count("doc"); got != 4 {
		t.Fatalf("Count after corrupt tail = %d, want 4", got)
	}
	if s2.Exists("doc", "k4") {
		t.Fatal("corrupt record applied")
	}
}

// TestSnapshotCompactsWAL: Snapshot to the opened path is the compaction
// point — the log empties, and a reopen sees snapshotted state plus any
// writes logged after the snapshot.
func TestSnapshotCompactsWAL(t *testing.T) {
	s, path := openDurable(t)
	for i := 0; i < 8; i++ {
		if _, err := s.Put("doc", fmt.Sprintf("k%d", i), doc{Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	if s.WALSize() == 0 {
		t.Fatal("WAL empty before snapshot")
	}
	if err := s.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WALSize after snapshot = %d, want 0", got)
	}
	// Post-snapshot writes land in the fresh log.
	if _, err := s.Put("doc", "after", doc{Count: 100}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count("doc"); got != 9 {
		t.Fatalf("Count after compact+reopen = %d, want 9", got)
	}
	if !s2.Exists("doc", "after") {
		t.Fatal("post-snapshot write lost")
	}
}

// TestSnapshotElsewhereDoesNotCompact: snapshotting to a side path (a
// backup) must not truncate the log that protects the primary path.
func TestSnapshotElsewhereDoesNotCompact(t *testing.T) {
	s, path := openDurable(t)
	if _, err := s.Put("doc", "a", doc{Count: 1}); err != nil {
		t.Fatal(err)
	}
	backup := filepath.Join(filepath.Dir(path), "backup.json")
	if err := s.Snapshot(backup); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() == 0 {
		t.Fatal("side snapshot truncated the primary WAL")
	}
}

// TestClosedStoreRejectsWrites: writes after Close fail loudly instead of
// silently losing durability; reads keep working.
func TestClosedStoreRejectsWrites(t *testing.T) {
	s, _ := openDurable(t)
	if _, err := s.Put("doc", "a", doc{Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.Put("doc", "b", doc{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if err := s.Delete("doc", "a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: %v, want ErrClosed", err)
	}
	var d doc
	if _, err := s.Get("doc", "a", &d); err != nil || d.Count != 1 {
		t.Fatalf("read after Close: d=%+v err=%v", d, err)
	}
}

// TestDurableConcurrentWriters drives writers across shards (run under
// -race) and verifies the replayed image matches exactly what was
// acknowledged.
func TestDurableConcurrentWriters(t *testing.T) {
	s, path := openDurable(t)
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if _, err := s.Put("doc", key, doc{Count: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Contended counter through Update exercises PutIfVersion's WAL path.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var cur doc
				if _, err := s.Update("doc", "ctr", &cur, func(bool) (any, error) {
					cur.Count++
					return cur, nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := s2.Count("doc"), workers*perWorker+1; got != want {
		t.Fatalf("Count after replay = %d, want %d", got, want)
	}
	var ctr doc
	if _, err := s2.Get("doc", "ctr", &ctr); err != nil || ctr.Count != 4*perWorker {
		t.Fatalf("ctr after replay = %+v err=%v, want %d", ctr, err, 4*perWorker)
	}
}

// TestSnapshotConcurrentWithWriters compacts while writers are running:
// every acknowledged write must be in snapshot ∪ log at reopen.
func TestSnapshotConcurrentWithWriters(t *testing.T) {
	s, path := openDurable(t)
	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Put("doc", fmt.Sprintf("w%d-k%d", w, i), doc{Count: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		if err := s.Snapshot(path); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := s2.Count("doc"), workers*perWorker; got != want {
		t.Fatalf("Count after concurrent snapshots = %d, want %d", got, want)
	}
}

// TestWithWALPathAndFsync covers the remaining options: an explicit WAL
// location and fsync-per-append both recover correctly.
func TestWithWALPathAndFsync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	walPath := filepath.Join(dir, "side.wal")
	s, err := Open(path, WithWALPath(walPath), WithFsync())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("doc", "a", doc{Count: 7}); err != nil {
		t.Fatal(err)
	}
	if segs, err := listSegments(walPath); err != nil || len(segs) == 0 {
		t.Fatalf("explicit WAL path not used: %v %v", segs, err)
	}
	s2, err := Open(path, WithWALPath(walPath))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var d doc
	if _, err := s2.Get("doc", "a", &d); err != nil || d.Count != 7 {
		t.Fatalf("d=%+v err=%v", d, err)
	}
}
