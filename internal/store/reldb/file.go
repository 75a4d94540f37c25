package reldb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"excovery/internal/store/fsio"
)

// Single-file binary format:
//
//	magic "XCRDB1\n"
//	uvarint tableCount
//	per table: name, uvarint colCount, cols (name, type byte),
//	           uvarint rowCount, rows (per value: tag byte + payload)
//	uint32 CRC-32 (IEEE) of everything before the trailer
//
// Strings and blobs are uvarint-length-prefixed. The CRC makes a truncated
// or corrupted experiment file detectable when exchanged between
// researchers (§IV-F: facilitating exchange of experiments).

var magic = []byte("XCRDB1\n")

const (
	tagNil byte = iota
	tagInt
	tagFloat
	tagText
	tagBlob
	tagTime
)

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// Save writes the database to w in one streaming pass: each table header
// and each row is encoded into one reused buffer, which a 64 KiB
// bufio.Writer hands on to the CRC writer in large chunks. The allocations
// of a Save do not grow with the row count.
func (db *DB) Save(w io.Writer) error {
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, 64<<10)
	buf := append(make([]byte, 0, 4<<10), magic...)
	buf = binary.AppendUvarint(buf, uint64(len(db.order)))
	for _, name := range db.order {
		t := db.tables[name]
		buf = appendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(len(t.schema.Columns)))
		for _, c := range t.schema.Columns {
			buf = appendString(buf, c.Name)
			buf = append(buf, byte(c.Type))
		}
		buf = binary.AppendUvarint(buf, uint64(len(t.rows)))
		for _, row := range t.rows {
			for _, v := range row {
				var err error
				if buf, err = appendValue(buf, v); err != nil {
					return err
				}
			}
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(buf[:0], cw.crc))
	return err
}

// Load reads a database previously written by Save. Blob values of the
// returned database alias the buffer the file was read into; callers must
// not modify them.
func Load(r io.Reader) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// decode parses a saved database from data, which it keeps: blob values
// are capacity-clipped subslices of it. It accepts exactly the byte
// strings Save produces — canonical varints, normalized timestamps, no
// trailing bytes — so Save(decode(x)) reproduces x.
func decode(data []byte) (*DB, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("reldb: file too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("reldb: checksum mismatch (corrupted file)")
	}
	rd := &reader{data: body}
	if string(rd.bytes(uint64(len(magic)))) != string(magic) {
		return nil, fmt.Errorf("reldb: bad magic")
	}
	db := New()
	nTables := rd.uvarint()
	for i := uint64(0); i < nTables && rd.err == nil; i++ {
		name := rd.string()
		nCols := rd.uvarint()
		s := Schema{Name: name}
		for c := uint64(0); c < nCols && rd.err == nil; c++ {
			cn := rd.string()
			ct := Type(rd.byte())
			s.Columns = append(s.Columns, Column{Name: cn, Type: ct})
		}
		if rd.err != nil {
			break
		}
		if err := db.CreateTable(s); err != nil {
			return nil, err
		}
		nRows := rd.uvarint()
		for r := uint64(0); r < nRows && rd.err == nil; r++ {
			row := make(Row, len(s.Columns))
			for c := range row {
				row[c] = rd.value()
			}
			if rd.err == nil {
				if err := db.Insert(name, row); err != nil {
					return nil, err
				}
			}
		}
	}
	if rd.err == nil && rd.pos != len(body) {
		rd.err = fmt.Errorf("%d trailing bytes", len(body)-rd.pos)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("reldb: parse: %w", rd.err)
	}
	return db, nil
}

// SaveFile streams the database to path atomically and durably through the
// store's staged-write helper (temp + fsync + rename + directory fsync): a
// conditioned level-3 database handed to other researchers must survive a
// crash at any point, same as the level-2 artifacts.
func (db *DB) SaveFile(path string) error {
	return fsio.WriteAtomic(path, db.Save)
}

// OpenFile loads a database from path. As with Load, blob values alias the
// file buffer and must not be modified.
func OpenFile(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		b = append(b, tagNil)
	case int64:
		b = binary.LittleEndian.AppendUint64(append(b, tagInt), uint64(x))
	case float64:
		b = binary.LittleEndian.AppendUint64(append(b, tagFloat), math.Float64bits(x))
	case string:
		b = appendString(append(b, tagText), x)
	case []byte:
		b = binary.AppendUvarint(append(b, tagBlob), uint64(len(x)))
		b = append(b, x...)
	case time.Time:
		b = binary.LittleEndian.AppendUint64(append(b, tagTime), uint64(x.Unix()))
		b = binary.LittleEndian.AppendUint32(b, uint32(x.Nanosecond()))
	default:
		return b, fmt.Errorf("reldb: cannot persist %T", v)
	}
	return b, nil
}

type reader struct {
	data []byte
	pos  int
	err  error
}

// bytes returns the next n bytes as a capacity-clipped view of the
// input. n comes from the file, so it is checked against what remains
// before any int conversion: a hostile length prefix is an error, never a
// slice-bounds panic.
func (r *reader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.pos) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	end := r.pos + int(n)
	out := r.data[r.pos:end:end]
	r.pos = end
	return out
}

func (r *reader) byte() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	// Save writes minimal varints; an overlong one (a zero final byte)
	// would not survive a Save round trip.
	if n > 1 && r.data[r.pos+n-1] == 0 {
		r.err = fmt.Errorf("non-canonical varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) string() string {
	return string(r.bytes(r.uvarint()))
}

func (r *reader) value() any {
	switch r.byte() {
	case tagNil:
		return nil
	case tagInt:
		b := r.bytes(8)
		if b == nil {
			return nil
		}
		return int64(binary.LittleEndian.Uint64(b))
	case tagFloat:
		b := r.bytes(8)
		if b == nil {
			return nil
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	case tagText:
		return r.string()
	case tagBlob:
		return r.bytes(r.uvarint())
	case tagTime:
		b := r.bytes(12)
		if b == nil {
			return nil
		}
		sec := int64(binary.LittleEndian.Uint64(b[:8]))
		nsec := int64(binary.LittleEndian.Uint32(b[8:]))
		if nsec >= 1e9 {
			r.err = fmt.Errorf("time nanoseconds %d out of range", nsec)
			return nil
		}
		return time.Unix(sec, nsec).UTC()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("unknown value tag")
		}
		return nil
	}
}
