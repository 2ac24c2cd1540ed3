// Package compress provides the block compression codec that runs inside
// the storage node software (paper §3.1: "the push-down logic is
// implemented in the software component of a storage unit, and thus can be
// deployed on any type of commodity hardware" — compression named as a key
// example). Frames are self-describing and checksummed so a storage node
// can verify replicas without decoding documents.
package compress

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Codec compresses and decompresses byte blocks.
type Codec interface {
	// Name identifies the codec in frame headers.
	Name() string
	// Compress returns the compressed form of src.
	Compress(src []byte) ([]byte, error)
	// Decompress expands a block produced by Compress.
	Decompress(src []byte) ([]byte, error)
}

// None is the identity codec.
var None Codec = noneCodec{}

type noneCodec struct{}

func (noneCodec) Name() string                          { return "none" }
func (noneCodec) Compress(src []byte) ([]byte, error)   { return src, nil }
func (noneCodec) Decompress(src []byte) ([]byte, error) { return src, nil }

// Flate is a DEFLATE codec at the default compression level.
var Flate Codec = flateCodec{level: flate.DefaultCompression}

// FlateFast is DEFLATE at the fastest level, for throughput-bound stores.
var FlateFast Codec = flateCodec{level: flate.BestSpeed}

type flateCodec struct{ level int }

func (c flateCodec) Name() string {
	if c.level == flate.BestSpeed {
		return "flate-fast"
	}
	return "flate"
}

func (c flateCodec) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, c.level)
	if err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	if _, err := w.Write(src); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	return buf.Bytes(), nil
}

func (c flateCodec) Decompress(src []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	return out, nil
}

// ErrFrame reports a malformed or corrupted frame.
var ErrFrame = errors.New("compress: bad frame")

// Frame layout:
//
//	magic[2] codecID[1] rawLen[uvarint] compLen[uvarint] crc32[4] payload...
//
// crc covers the *raw* bytes so corruption is caught after decompression.
const (
	magic0 = 0xC4
	magic1 = 0x5E
)

var codecIDs = map[string]byte{"none": 0, "flate": 1, "flate-fast": 2}

var codecByID = map[byte]Codec{0: None, 1: Flate, 2: FlateFast}

// EncodeFrame wraps raw bytes into a checksummed frame using the codec.
func EncodeFrame(c Codec, raw []byte) ([]byte, error) {
	id, ok := codecIDs[c.Name()]
	if !ok {
		return nil, fmt.Errorf("%w: unknown codec %q", ErrFrame, c.Name())
	}
	payload, err := c.Compress(raw)
	if err != nil {
		return nil, err
	}
	// If compression expands the block (incompressible data), store raw.
	if len(payload) >= len(raw) {
		id = codecIDs["none"]
		payload = raw
	}
	buf := make([]byte, 0, len(payload)+24)
	buf = append(buf, magic0, magic1, id)
	buf = binary.AppendUvarint(buf, uint64(len(raw)))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(raw))
	buf = append(buf, crc[:]...)
	buf = append(buf, payload...)
	return buf, nil
}

// maxFrameLen bounds a single frame's raw and compressed payload so a
// corrupt length prefix cannot drive an unbounded allocation.
const maxFrameLen = 1 << 30

// FrameReader streams concatenated frames from an io.Reader with bounded
// memory: only one frame's payload is resident at a time. It is the
// shared replay path of every storage backend — recovery cost no longer
// scales the heap with total log size.
type FrameReader struct {
	br *bufio.Reader
}

// NewFrameReader wraps r (buffered internally) for frame iteration,
// sized for sequential replay.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// NewFrameReaderSize is NewFrameReader with an explicit buffer size —
// single-frame random reads want a small buffer, not replay's 64 KiB.
func NewFrameReaderSize(r io.Reader, size int) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, size)}
}

// Next returns the next frame's verified raw bytes and the number of
// encoded bytes the frame occupied. It returns io.EOF at a clean frame
// boundary; any other error (including an EOF inside a frame) marks a
// torn or corrupt tail at the current position.
func (fr *FrameReader) Next() (raw []byte, consumed int, err error) {
	head, err := fr.br.ReadByte()
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, 0, err
	}
	head2, err := fr.br.ReadByte()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: torn magic", ErrFrame)
	}
	if head != magic0 || head2 != magic1 {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrFrame)
	}
	codecID, err := fr.br.ReadByte()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: torn header", ErrFrame)
	}
	codec, ok := codecByID[codecID]
	if !ok {
		return nil, 0, fmt.Errorf("%w: unknown codec id %d", ErrFrame, codecID)
	}
	n := 3
	rawLen, rn, err := readUvarint(fr.br)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: bad rawLen", ErrFrame)
	}
	n += rn
	compLen, cn, err := readUvarint(fr.br)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: bad compLen", ErrFrame)
	}
	n += cn
	if rawLen > maxFrameLen || compLen > maxFrameLen {
		return nil, 0, fmt.Errorf("%w: oversized frame", ErrFrame)
	}
	var crc [4]byte
	if _, err := io.ReadFull(fr.br, crc[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated crc", ErrFrame)
	}
	n += 4
	payload := make([]byte, compLen)
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated payload", ErrFrame)
	}
	n += int(compLen)
	raw, err = codec.Decompress(payload)
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(raw)) != rawLen {
		return nil, 0, fmt.Errorf("%w: raw length mismatch", ErrFrame)
	}
	if crc32.ChecksumIEEE(raw) != binary.LittleEndian.Uint32(crc[:]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	return raw, n, nil
}

// readUvarint reads a uvarint reporting how many bytes it consumed.
func readUvarint(br io.ByteReader) (uint64, int, error) {
	var u uint64
	var shift, n int
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, n, err
		}
		n++
		if shift >= 64 {
			return 0, n, ErrFrame
		}
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return u, n, nil
		}
		shift += 7
	}
}

// DecodeFrame parses and verifies a frame held in memory, returning the
// raw bytes and the total number of frame bytes consumed (frames may be
// concatenated). The returned raw bytes are always an owned copy; use
// DecodeFrameAt when the input slice outlives the call and a view is
// enough.
func DecodeFrame(b []byte) (raw []byte, consumed int, err error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("%w: empty frame", ErrFrame)
	}
	return NewFrameReader(bytes.NewReader(b)).Next()
}

// DecodeFrameAt parses and verifies the frame at the start of b without
// copying the payload when the codec allows it: for uncompressed frames
// the returned raw bytes are a sub-slice of b (the zero-copy path the
// segment store reads sealed segments through — the page cache is the
// buffer), for compressed frames the decompression output is the only
// copy. Callers must not retain raw past b's lifetime; the storage layer
// decodes into owned document values before releasing its read lock.
func DecodeFrameAt(b []byte) (raw []byte, consumed int, err error) {
	if len(b) < 3 {
		return nil, 0, fmt.Errorf("%w: torn magic", ErrFrame)
	}
	if b[0] != magic0 || b[1] != magic1 {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrFrame)
	}
	codec, ok := codecByID[b[2]]
	if !ok {
		return nil, 0, fmt.Errorf("%w: unknown codec id %d", ErrFrame, b[2])
	}
	n := 3
	rawLen, rn := binary.Uvarint(b[n:])
	if rn <= 0 {
		return nil, 0, fmt.Errorf("%w: bad rawLen", ErrFrame)
	}
	n += rn
	compLen, cn := binary.Uvarint(b[n:])
	if cn <= 0 {
		return nil, 0, fmt.Errorf("%w: bad compLen", ErrFrame)
	}
	n += cn
	if rawLen > maxFrameLen || compLen > maxFrameLen {
		return nil, 0, fmt.Errorf("%w: oversized frame", ErrFrame)
	}
	if len(b)-n < 4 {
		return nil, 0, fmt.Errorf("%w: truncated crc", ErrFrame)
	}
	crc := binary.LittleEndian.Uint32(b[n:])
	n += 4
	if uint64(len(b)-n) < compLen {
		return nil, 0, fmt.Errorf("%w: truncated payload", ErrFrame)
	}
	payload := b[n : n+int(compLen)]
	n += int(compLen)
	if codec == None {
		raw = payload // zero-copy view into b
	} else if raw, err = codec.Decompress(payload); err != nil {
		return nil, 0, err
	}
	if uint64(len(raw)) != rawLen {
		return nil, 0, fmt.Errorf("%w: raw length mismatch", ErrFrame)
	}
	if crc32.ChecksumIEEE(raw) != crc {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	return raw, n, nil
}
