package jsonl

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type rec struct {
	K string `json:"k"`
	N int    `json:"n"`
}

func write(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, path string) []rec {
	t.Helper()
	got, err := Read[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestTornTailThenAppend: a log whose writer died mid-line gets its
// newline back on Open, so the first record appended afterwards is
// its own line instead of being glued onto the fragment and lost.
func TestTornTailThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	write(t, path, `{"k":"a","n":1}`+"\n"+`{"k":"torn","n`)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{"b", 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := read(t, path)
	if len(got) != 2 || got[0] != (rec{"a", 1}) || got[1] != (rec{"b", 2}) {
		t.Fatalf("read back %+v, want a/1 then b/2", got)
	}
	// A second Open of a now well-terminated file adds no blank line.
	b, _ := os.ReadFile(path)
	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if after, _ := os.ReadFile(path); len(after) != len(b) {
		t.Errorf("reopening a terminated log grew it from %d to %d bytes", len(b), len(after))
	}
}

func TestReadMissingIsEmpty(t *testing.T) {
	got, err := Read[rec](filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || len(got) != 0 {
		t.Fatalf("Read of a missing file = %v, %v; want empty, nil", got, err)
	}
}

func TestReadSkipsBlankAndGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	write(t, path, "\n"+`{"k":"a","n":1}`+"\n   \nnot json\n"+`{"k":"b","n":"two"}`+"\n"+`  {"k":"c","n":3}  `+"\n")
	got := read(t, path)
	if len(got) != 2 || got[0] != (rec{"a", 1}) || got[1] != (rec{"c", 3}) {
		t.Fatalf("read back %+v, want a/1 then c/3", got)
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	if err := l.Append(rec{"a", 1}); err != nil {
		t.Errorf("nil Append = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

// TestConcurrentAppends: appends from several goroutines never
// interleave within a line.
func TestConcurrentAppends(t *testing.T) {
	const writers, each = 8, 200
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(rec{fmt.Sprint(w), i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := read(t, path)
	if len(got) != writers*each {
		t.Fatalf("read back %d records, want %d", len(got), writers*each)
	}
	next := map[string]int{}
	for _, r := range got {
		if r.N != next[r.K] {
			t.Fatalf("writer %s: record %d out of order, want %d", r.K, r.N, next[r.K])
		}
		next[r.K]++
	}
}
