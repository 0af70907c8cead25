package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// FuzzDecodeEntry feeds arbitrary file contents to decodeEntry, the reader
// of every on-disk entry. Anything that does not verify must be a miss,
// never a panic, and a hit must be exactly the envelope Put writes around
// the returned payload.
func FuzzDecodeEntry(f *testing.F) {
	golden := []byte("rubixstore v1 99b2f51b5b653a94d7bb1b0d069192a6ff6f1089ab696b64d00581440cb8e31f\ngolden payload")
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add(bytes.Replace(golden, []byte("v1"), []byte("v2"), 1))
	f.Add([]byte("rubixstore v1 \n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, ok := decodeEntry(raw)
		if !ok {
			return
		}
		sum := sha256.Sum256(payload)
		want := append([]byte(formatHeader+hex.EncodeToString(sum[:])+"\n"), payload...)
		if !bytes.Equal(raw, want) {
			t.Fatalf("decodeEntry accepted %q, which Put would not have written", raw)
		}
	})
}
