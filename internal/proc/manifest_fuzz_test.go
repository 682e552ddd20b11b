package proc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/runfile"
)

// wellFormedPrefix is the replay contract spelled out: the entries of
// the complete lines before the first torn (unterminated) or malformed
// one.
func wellFormedPrefix(data []byte) []manifestEntry {
	var out []manifestEntry
	for {
		line, rest, ok := bytes.Cut(data, []byte{'\n'})
		if !ok {
			return out
		}
		var e manifestEntry
		if json.Unmarshal(line, &e) != nil {
			return out
		}
		out = append(out, e)
		data = rest
	}
}

// FuzzManifestReplay replays arbitrary manifest bytes. readManifest
// must never panic or fail on content, must return exactly the
// well-formed prefix, and a valid manifest followed by any torn tail —
// a worker killed inside its next commit — must replay to the valid
// manifest's own entries.
func FuzzManifestReplay(f *testing.F) {
	f.Add(uint8(2), []byte(`{"Task":2,"Attempt":0,"Sect`))
	f.Add(uint8(0), []byte("{}\n{\"Task\":1}\nnot json\n{\"Task\":2}\n"))
	f.Add(uint8(3), []byte("\n\n"))
	f.Add(uint8(1), []byte(`{"Task":1,"Sections":[{"Path":"p","Length":9}]}`+"\n"+`{"Task":`))
	f.Add(uint8(1), []byte("null\n{\"Task\":\"x\"}\n"))
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		path := filepath.Join(t.TempDir(), "manifest")
		replay := func(content []byte) []manifestEntry {
			t.Helper()
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			entries, err := readManifest(runfile.OSFS, path)
			if err != nil {
				t.Fatalf("replay of %q failed: %v", content, err)
			}
			return entries
		}
		if got, want := replay(data), wellFormedPrefix(data); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay of %q\n got %+v\nwant %+v", data, got, want)
		}

		var valid []byte
		var want []manifestEntry
		for i := 0; i < int(n%4); i++ {
			e := manifestEntry{
				Task: i, Attempt: int(n), PairsEmitted: int64(len(data)), PeakResident: int64(i),
				Sections: []Section{{Path: "spool", Offset: int64(i), Length: 9, Task: i, Part: int(n)}},
			}
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			valid = append(append(valid, line...), '\n')
			want = append(want, e)
		}
		torn, _, _ := bytes.Cut(data, []byte{'\n'})
		if got := replay(append(valid, torn...)); !reflect.DeepEqual(got, want) {
			t.Fatalf("valid manifest + torn tail %q\n got %+v\nwant %+v", torn, got, want)
		}
	})
}
