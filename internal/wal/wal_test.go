package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

type testRec struct {
	Op  string `json:"op"`
	Key string `json:"key"`
	V   int    `json:"v,omitempty"`
}

const testVersion = "test/v1"

var testCodec = Codec[string, testRec]{
	Version:   testVersion,
	Name:      "wal test",
	Key:       func(r *testRec) string { return r.Key },
	Tombstone: func(r *testRec) bool { return r.Op == "del" },
	Validate: func(r *testRec) error {
		if r.Key == "" || (r.Op != "put" && r.Op != "del") {
			return fmt.Errorf("invalid record op %q", r.Op)
		}
		return nil
	},
}

// validLine builds a checksummed line independently of encodeLine.
func validLine(r testRec) []byte {
	body, _ := json.Marshal(r)
	sum := sha256.Sum256(body)
	return []byte(testVersion + " " + hex.EncodeToString(sum[:]) + " " + string(body) + "\n")
}

// verified reports whether line carries the version prefix and a
// checksum matching its body, and decodes it if so.
func verified(line []byte) (testRec, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(testVersion+" "))
	if !ok {
		return testRec{}, false
	}
	sum, body, ok := bytes.Cut(rest, []byte(" "))
	got := sha256.Sum256(body)
	if !ok || string(sum) != hex.EncodeToString(got[:]) {
		return testRec{}, false
	}
	var r testRec
	if json.Unmarshal(body, &r) != nil || testCodec.Validate(&r) != nil {
		return testRec{}, false
	}
	return r, true
}

// FuzzWALReplay feeds replay arbitrary segment bytes with valid lines
// spliced in at fuzzer-chosen offsets. Replay must never panic, must
// apply exactly the lines whose checksum verifies (in order, to a live
// set a plain model agrees with, byte sizes included), and must never
// leave live a key whose last verified record is a tombstone.
func FuzzWALReplay(f *testing.F) {
	put := validLine(testRec{Op: "put", Key: "a", V: 1})
	del := validLine(testRec{Op: "del", Key: "a"})
	f.Add([]byte{}, []byte{0, 1, 2})
	f.Add(append(append([]byte{}, put...), del...), []byte{})
	f.Add(put[:len(put)/2], []byte{7, 200})
	f.Add([]byte("test/v1 00 {}\n\n\xff"), []byte{5, 6, 128, 255})
	f.Fuzz(func(t *testing.T, junk, ops []byte) {
		seg := append([]byte(nil), junk...)
		for i, b := range ops {
			r := testRec{Op: "put", Key: string(rune('a' + b%4)), V: i}
			if b&0x10 != 0 {
				r = testRec{Op: "del", Key: r.Key}
			}
			at := int(b) * len(seg) / 256
			seg = append(seg[:at], append(validLine(r), seg[at:]...)...)
		}

		type modelEntry struct {
			rec  testRec
			size int64
		}
		var order []string
		model := map[string]modelEntry{}
		dead := map[string]bool{}
		var skipped int64
		for _, line := range bytes.Split(seg, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			r, ok := verified(line)
			if !ok {
				skipped++
				continue
			}
			if r.Op == "del" {
				if _, live := model[r.Key]; live {
					delete(model, r.Key)
					for i, k := range order {
						if k == r.Key {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
				}
				dead[r.Key] = true
				continue
			}
			if _, live := model[r.Key]; !live {
				order = append(order, r.Key)
			}
			model[r.Key] = modelEntry{r, int64(len(line)) + 1}
			dead[r.Key] = false
		}

		l, err := Open("", nil, nil, testCodec)
		if err != nil {
			t.Fatal(err)
		}
		l.applySegment("fuzz", seg)

		var gotKeys []string
		l.Each(func(r *testRec) {
			gotKeys = append(gotKeys, r.Key)
			if dead[r.Key] {
				t.Errorf("key %q live after a checksummed tombstone", r.Key)
			}
			if want := model[r.Key].rec; *r != want {
				t.Errorf("live record %+v, want %+v", *r, want)
			}
		})
		if !slices.Equal(gotKeys, order) {
			t.Fatalf("live keys %v, want %v", gotKeys, order)
		}
		var wantBytes int64
		for _, e := range model {
			wantBytes += e.size
		}
		if l.Bytes() != wantBytes {
			t.Fatalf("live bytes %d, want %d", l.Bytes(), wantBytes)
		}
		if st := l.Stats(); st.Truncated != skipped {
			t.Fatalf("truncated %d, want %d skipped lines", st.Truncated, skipped)
		}
	})
}
