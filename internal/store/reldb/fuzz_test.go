package reldb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// withCRC returns body followed by its CRC trailer, so mutated inputs
// get past the checksum and reach the parser.
func withCRC(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// hostileLengthPrefix is a checksummed file whose first table name claims
// 2^63 bytes: converted to int, the length is negative.
func hostileLengthPrefix() []byte {
	body := append([]byte(nil), magic...)
	body = binary.AppendUvarint(body, 1)
	body = binary.AppendUvarint(body, 1<<63)
	return withCRC(append(body, "T"...))
}

func TestLoadHostileLengthPrefix(t *testing.T) {
	if _, err := Load(bytes.NewReader(hostileLengthPrefix())); err == nil {
		t.Fatal("length prefix of 2^63 accepted")
	}
}

func TestLoadRejectsNonCanonicalEncodings(t *testing.T) {
	seed, err := os.ReadFile("testdata/oneshot.xcdb")
	if err != nil {
		t.Fatal(err)
	}
	body := seed[:len(seed)-4]
	// The table count is one varint byte in the seed; pad it to two.
	overlong := append([]byte(nil), magic...)
	overlong = append(overlong, body[len(magic)]|0x80, 0)
	overlong = append(overlong, body[len(magic)+1:]...)
	for name, bad := range map[string][]byte{
		"overlong varint": overlong,
		"trailing byte":   append(append([]byte(nil), body...), 0),
	} {
		if _, err := Load(bytes.NewReader(withCRC(bad))); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzLoad: Load never panics, and every input it accepts is exactly what
// Save writes for the loaded database. Each input is tried as given and
// with its CRC trailer recomputed.
func FuzzLoad(f *testing.F) {
	seed, err := os.ReadFile("testdata/oneshot.xcdb")
	if err != nil {
		f.Fatal(err)
	}
	body := seed[:len(seed)-4]
	f.Add(seed)
	f.Add(hostileLengthPrefix())
	for _, cut := range []int{0, len(magic), len(magic) + 1, len(body) / 3, len(body) - 1} {
		f.Add(seed[:cut])
		f.Add(withCRC(body[:cut]))
	}
	for _, at := range []int{len(magic), len(magic) + 3, len(body) / 2, len(body) - 2} {
		flipped := append([]byte(nil), body...)
		flipped[at] ^= 0x40
		f.Add(withCRC(flipped))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, withCRC(data[:len(data)-4]))
		}
		for _, in := range inputs {
			in = append([]byte(nil), in...) // Load may alias its input
			db, err := Load(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := db.Save(&out); err != nil {
				t.Fatalf("Save of a loaded database: %v", err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("Save(Load(x)) != x: %d bytes in, %d out", len(in), out.Len())
			}
		}
	})
}
