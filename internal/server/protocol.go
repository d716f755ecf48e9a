// The protocol layer: request decoding and response encoding, kept apart
// from admission/deadline/reload mechanics. Box and batch answers have a
// second, binary encoding — the reply frame below — that the router asks
// its workers for; every other answer, and every answer to a client that
// does not ask for a frame, is JSON. Responses are appended to a pooled
// byte buffer with strconv or encoding/binary — no encoding/json, no
// reflection — and handed to the transport as one finished []byte, so a
// request that dies mid-query has written nothing.
//
// The types and append helpers are exported because the layer is shared:
// the cluster package (internal/cluster) encodes its worker requests and
// the worker's shardinfo through them, and benchmarks reuse them.
package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// maxRequestBody bounds request decoding; batch requests are the largest
// legitimate bodies and stay far under this.
const maxRequestBody = 1 << 20

// ProtoScratch carries one request's reusable buffers: the response body
// under construction plus the result slices the query layer appends into.
// It follows the repo's scratch discipline — get from the pool, release
// exactly once, never retain across requests.
type ProtoScratch struct {
	Buf    []byte
	Coords []int
	Runs   []spectrallpm.PageRun
	Stats  []spectrallpm.IOStats
	Boxes  []spectrallpm.Box
}

var protoPool = sync.Pool{
	New: func() any { return &ProtoScratch{Buf: make([]byte, 0, 4096)} },
}

// protoLive counts leased-but-unreleased scratches. Tests read it around
// a request to assert the handler released its scratch on every exit
// path, including the error ones.
var protoLive atomic.Int64

// ProtoLive reports the number of leased-but-unreleased protocol
// scratches — zero between requests when every handler honors the pool
// contract. Exposed for the cluster package's leak assertions.
func ProtoLive() int64 { return protoLive.Load() }

// GetProto leases a ProtoScratch from the pool.
//
//lpm:poolget
func GetProto() *ProtoScratch {
	ps := protoPool.Get().(*ProtoScratch)
	ps.Buf = ps.Buf[:0]
	protoLive.Add(1)
	return ps
}

// Put returns the scratch to the pool. Slices keep their capacity; the
// next lease truncates before use.
func (ps *ProtoScratch) Put() {
	protoLive.Add(-1)
	protoPool.Put(ps)
}

// --- response encoding (append-style, zero reflection) ---

// AppendInt appends the decimal form of v.
func AppendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// AppendIntArray appends [v0,v1,...].
func AppendIntArray(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendInt(b, v)
	}
	return append(b, ']')
}

// AppendRankResponse encodes {"rank":N}.
func AppendRankResponse(b []byte, rank int) []byte {
	b = append(b, `{"rank":`...)
	b = AppendInt(b, rank)
	return append(b, '}')
}

// AppendPointResponse encodes {"coords":[...]}.
func AppendPointResponse(b []byte, coords []int) []byte {
	b = append(b, `{"coords":`...)
	b = AppendIntArray(b, coords)
	return append(b, '}')
}

// AppendBoxHeader / AppendBoxRow / FinishBoxResponse stream
// {"count":N,"results":[[rank,c0,...],...]} — rows are appended as the
// scan yields them, and the count (known only at the end) is written into
// a fixed-width slot reserved by the header.
const boxCountWidth = 12 // fits any int up to 10^12-1 plus sign headroom

// AppendBoxHeader opens the box response and reserves the count slot.
func AppendBoxHeader(b []byte) (out []byte, countAt int) {
	b = append(b, `{"count":`...)
	countAt = len(b)
	for i := 0; i < boxCountWidth; i++ {
		b = append(b, ' ')
	}
	b = append(b, `,"results":[`...)
	return b, countAt
}

// AppendBoxRow appends one [rank,c0,c1,...] result row.
func AppendBoxRow(b []byte, first bool, rank int, coords []int) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, '[')
	b = AppendInt(b, rank)
	for _, c := range coords {
		b = append(b, ',')
		b = AppendInt(b, c)
	}
	return append(b, ']')
}

// appendShardsMissing appends the partial-results marker a router emits
// when -partial mode answered without some shards (a *PartialError). A nil/empty slice
// appends nothing, so complete responses are byte-identical to the
// single-node daemon's.
func appendShardsMissing(b []byte, missing []int) []byte {
	if len(missing) == 0 {
		return b
	}
	b = append(b, `,"shards_missing":`...)
	return AppendIntArray(b, missing)
}

// FinishBoxResponse closes the results array, appends the shards_missing
// field when missing is non-empty, and splices the final count into the
// slot AppendBoxHeader reserved.
func FinishBoxResponse(b []byte, countAt, count int, missing []int) []byte {
	b = append(b, ']')
	b = appendShardsMissing(b, missing)
	b = append(b, '}')
	// Write the digits at the slot's start, then shift everything after the
	// reserved slot left to excise the unused padding.
	s := strconv.Itoa(count)
	copy(b[countAt:], s)
	n := copy(b[countAt+len(s):], b[countAt+boxCountWidth:])
	return b[:countAt+len(s)+n]
}

// AppendPagesResponse encodes {"runs":[[start,pages],...]}, plus
// shards_missing when the router answered partially.
func AppendPagesResponse(b []byte, runs []spectrallpm.PageRun, missing []int) []byte {
	b = append(b, `{"runs":[`...)
	for i, r := range runs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = AppendInt(b, r.Start)
		b = append(b, ',')
		b = AppendInt(b, r.Pages)
		b = append(b, ']')
	}
	b = append(b, ']')
	b = appendShardsMissing(b, missing)
	return append(b, '}')
}

// AppendIOStats encodes one {"pages":..,"seeks":..,"span_pages":..}.
func AppendIOStats(b []byte, st spectrallpm.IOStats) []byte {
	b = append(b, `{"pages":`...)
	b = AppendInt(b, st.Pages)
	b = append(b, `,"seeks":`...)
	b = AppendInt(b, st.Seeks)
	b = append(b, `,"span_pages":`...)
	b = AppendInt(b, st.SpanPages)
	return append(b, '}')
}

// AppendBatchResponse encodes {"stats":[{...},...]}, plus shards_missing
// when the router answered partially.
func AppendBatchResponse(b []byte, stats []spectrallpm.IOStats, missing []int) []byte {
	b = append(b, `{"stats":[`...)
	for i, st := range stats {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendIOStats(b, st)
	}
	b = append(b, ']')
	b = appendShardsMissing(b, missing)
	return append(b, '}')
}

// --- the reply frame (the internal worker→router hop) ---

// A reply frame is the fixed-width binary form of a box or batch answer,
// sent instead of JSON when the request carries Accept: FrameContentType:
//
//	magic "SLPMRF1\n" | count u64 | width u64 | count×width int64 | crc32c u32
//
// All integers are little-endian. A frame holds count rows of width
// values each, in one of two widths:
//
//   - a box answer (/v1/box): width 1+d, each row a rank followed by the
//     point's d coordinates, in ascending rank order;
//   - a batch answer (/v1/batch): width 3, each row [box index, start
//     page, pages] — one page run of the request's box at that index —
//     with the boxes in request order and each box's runs ascending. A box
//     without runs has no row.
//
// The CRC32C (Castagnoli, as in the v2 codec) covers every byte before
// it. A frame has no shards_missing field, so a partial answer is never
// framed.
const (
	FrameContentType = "application/x-slpm-frame"
	FrameHeaderSize  = 24
	FrameTrailerSize = 4
	frameMagic       = "SLPMRF1\n"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame decoding failures. Each is a reply that cannot be a whole frame.
var (
	errFrameShort  = errors.New("reply frame shorter than its header and checksum")
	errFrameMagic  = errors.New("reply frame has no SLPMRF1 magic")
	errFrameLength = errors.New("reply frame count×width disagrees with its length")
	errFrameCRC    = errors.New("reply frame checksum mismatch")
)

// acceptsFrame reports whether the request asked for a reply frame.
func acceptsFrame(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), FrameContentType)
}

// AppendFrameHeader opens a frame and reserves its count and width,
// which FinishFrame fills in once the values are known.
func AppendFrameHeader(b []byte) (out []byte, at int) {
	at = len(b)
	b = append(b, frameMagic...)
	b = binary.LittleEndian.AppendUint64(b, 0)
	return binary.LittleEndian.AppendUint64(b, 0), at
}

// AppendFrameRow appends one box row: rank, then coords.
//
//lpm:allocfree
func AppendFrameRow(b []byte, rank int, coords []int) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(rank))
	for _, c := range coords {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return b
}

// FinishFrame writes count and width into the header opened at at and
// appends the checksum over the frame.
func FinishFrame(b []byte, at, count, width int) []byte {
	binary.LittleEndian.PutUint64(b[at+8:], uint64(count))
	binary.LittleEndian.PutUint64(b[at+16:], uint64(width))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[at:], castagnoli))
}

// appendRunRow appends one batch row: the box's index in the request,
// then one of its page runs.
//
//lpm:allocfree
func appendRunRow(b []byte, box int, r spectrallpm.PageRun) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(box))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Start))
	return binary.LittleEndian.AppendUint64(b, uint64(r.Pages))
}

// ParseFrame checks a whole frame — magic, a count×width that matches its
// length exactly, and the checksum — and returns its count, width and the
// count×width little-endian int64 values. It never allocates.
func ParseFrame(data []byte) (count, width int, vals []byte, err error) {
	if len(data) < FrameHeaderSize+FrameTrailerSize {
		return 0, 0, nil, errFrameShort
	}
	if string(data[:len(frameMagic)]) != frameMagic {
		return 0, 0, nil, errFrameMagic
	}
	c := binary.LittleEndian.Uint64(data[8:])
	w := binary.LittleEndian.Uint64(data[16:])
	vals = data[FrameHeaderSize : len(data)-FrameTrailerSize]
	if len(vals)%8 != 0 {
		return 0, 0, nil, errFrameLength
	}
	// Compare by division, so no count×width can wrap around to a match,
	// and keep the width within an int on every platform.
	cells := uint64(len(vals) / 8)
	if w > math.MaxInt32 || w == 0 && c != 0 || w != 0 && (c > cells/w || c*w != cells) {
		return 0, 0, nil, errFrameLength
	}
	body := data[:len(data)-FrameTrailerSize]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return 0, 0, nil, errFrameCRC
	}
	return int(c), int(w), vals, nil
}

// --- request decoding (stdlib json; request parsing is not a hot path) ---

// RankRequest is the body of POST /v1/rank.
type RankRequest struct {
	Coords []int `json:"coords"`
}

// PointRequest is the body of POST /v1/point.
type PointRequest struct {
	Rank int `json:"rank"`
}

// BoxRequest is the body of POST /v1/box and /v1/pages.
type BoxRequest struct {
	Start []int `json:"start"`
	Dims  []int `json:"dims"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Boxes []BoxRequest `json:"boxes"`
}

// DecodeRequest reads and JSON-decodes a request body into dst, bounding
// the read at the protocol's body cap.
func DecodeRequest(r *http.Request, dst any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		return err
	}
	if len(body) > maxRequestBody {
		return errors.New("request body too large")
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
