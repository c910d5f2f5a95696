package persist

// Streaming WMSNAP encoding. StreamWriter emits the same byte stream
// Write always produced — magic, version, meta section, shard sections
// in order, optional admission section, end marker — but accepts each
// shard's entries incrementally, so a concurrent cache can feed it
// bounded export chunks between lock acquisitions instead of
// materializing every shard first. Write itself is now a thin loop over
// StreamWriter, so the two paths cannot drift.
//
// Byte compatibility hinges on two properties of the format. First,
// a shard section's header (config echo, clock context, Stats) contains
// no strings, so buffering it separately from the entry bytes does not
// disturb the stream-wide interning dictionary. Second, the section
// payload is length-prefixed with the CRC at the end, so the section
// can be framed once the shard's last chunk has arrived: the header,
// the entry count and the entry bytes are flushed as one section with a
// CRC computed incrementally over the parts. Peak encoder memory is
// one shard's encoded bytes plus one chunk — not the whole snapshot.
//
// Encoders (section buffers, interning dictionary, payload scratch and
// the output bufio.Writer) are pooled: steady-state snapshotting on an
// interval reuses one warm encoder instead of reallocating the
// dictionary and buffers every time.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
)

// encoder bundles every reusable piece of encoding state. head holds a
// shard section's string-free header bytes, body its entry bytes, misc
// the small single-flush sections (meta, admission, end); all three
// share the stream-wide interning dictionary.
type encoder struct {
	bw      *bufio.Writer
	dict    map[string]uint64
	head    sectionWriter
	body    sectionWriter
	misc    sectionWriter
	jsonBuf bytes.Buffer
	jsonEnc *json.Encoder
}

var encoderPool = sync.Pool{New: func() any {
	e := &encoder{
		bw:   bufio.NewWriterSize(io.Discard, 1<<16),
		dict: make(map[string]uint64),
	}
	e.head.dict = e.dict
	e.body.dict = e.dict
	e.misc.dict = e.dict
	e.jsonEnc = json.NewEncoder(&e.jsonBuf)
	return e
}}

// Pooling caps: an encoder that ballooned on one huge snapshot is
// dropped rather than pinned in the pool forever.
const (
	maxPooledBufBytes = 16 << 20
	maxPooledDictLen  = 1 << 20
)

func getEncoder(w io.Writer) *encoder {
	e := encoderPool.Get().(*encoder)
	e.bw.Reset(w)
	return e
}

func putEncoder(e *encoder) {
	e.bw.Reset(io.Discard)
	if e.head.buf.Cap() > maxPooledBufBytes || e.body.buf.Cap() > maxPooledBufBytes ||
		e.misc.buf.Cap() > maxPooledBufBytes || e.jsonBuf.Cap() > maxPooledBufBytes ||
		len(e.dict) > maxPooledDictLen {
		return
	}
	e.head.buf.Reset()
	e.body.buf.Reset()
	e.misc.buf.Reset()
	e.jsonBuf.Reset()
	clear(e.dict)
	encoderPool.Put(e)
}

// marshal JSON-encodes v into the pooled scratch buffer and returns its
// bytes, valid until the next marshal call. The output matches
// json.Marshal byte for byte (json.Encoder appends one newline, trimmed
// here; both escape HTML).
func (e *encoder) marshal(v any) ([]byte, error) {
	e.jsonBuf.Reset()
	if err := e.jsonEnc.Encode(v); err != nil {
		return nil, err
	}
	b := e.jsonBuf.Bytes()
	return b[:len(b)-1], nil
}

// writePayload encodes one entry payload, tag byte then blob, into w.
// The cache stores payloads as opaque `any` values; the concrete types
// the serving stack produces are persisted and anything unserializable
// fails the write loudly rather than silently resurrecting an entry
// without its data.
func (e *encoder) writePayload(w *sectionWriter, id string, p any) error {
	switch v := p.(type) {
	case nil:
		w.buf.WriteByte(payloadNil)
		w.blob(nil)
	case []byte:
		w.buf.WriteByte(payloadBytes)
		w.blob(v)
	case string:
		w.buf.WriteByte(payloadString)
		w.uvarint(uint64(len(v)))
		w.buf.WriteString(v)
	case *engine.Result:
		data, err := e.marshal(v)
		if err != nil {
			return fmt.Errorf("persist: entry %q: encoding engine result: %w", id, err)
		}
		w.buf.WriteByte(payloadResult)
		w.blob(data)
	default:
		data, err := e.marshal(v)
		if err != nil {
			return fmt.Errorf("persist: entry %q has a payload of unserializable type %T: %w", id, p, err)
		}
		w.buf.WriteByte(payloadJSON)
		w.blob(data)
	}
	return nil
}

// writeEntry serializes one entry into w.
func (e *encoder) writeEntry(w *sectionWriter, es *core.EntryState) error {
	w.str(es.ID)
	w.bool(es.Resident)
	w.varint(es.Size)
	w.float(es.Cost)
	w.varint(int64(es.Class))
	w.uvarint(uint64(len(es.Relations)))
	for _, r := range es.Relations {
		w.str(r)
	}
	w.uvarint(uint64(len(es.RefTimes)))
	for _, t := range es.RefTimes {
		w.float(t)
	}
	w.varint(es.TotalRefs)
	if err := e.writePayload(w, es.ID, es.Payload); err != nil {
		return err
	}
	switch p := es.Plan.(type) {
	case nil:
		w.bool(false)
	case *engine.Descriptor:
		w.bool(true)
		writePlan(w, p)
	default:
		return fmt.Errorf("persist: entry %q has a plan of unserializable type %T", es.ID, es.Plan)
	}
	return nil
}

// writePlan encodes a plan descriptor's fields, every name interned, in
// the field order of the trace codec's version 2 (trace.dictWriter.plan).
// The two are kept apart for the reason sectionWriter gives: the trace
// writer streams with a per-call error, this one buffers a section.
func writePlan(w *sectionWriter, p *engine.Descriptor) {
	w.str(p.Rel)
	w.str(p.Index)
	w.uvarint(uint64(len(p.Preds)))
	for i := range p.Preds {
		pr := &p.Preds[i]
		w.str(pr.Col)
		w.uvarint(uint64(pr.Op))
		w.varint(pr.Lo)
		w.varint(pr.Hi)
	}
	for _, cols := range [][]string{p.Cols, p.GroupBy} {
		w.uvarint(uint64(len(cols)))
		for _, c := range cols {
			w.str(c)
		}
	}
	w.uvarint(uint64(len(p.Aggs)))
	for i := range p.Aggs {
		sp := &p.Aggs[i]
		w.uvarint(uint64(sp.Kind))
		w.str(sp.Col)
		w.str(sp.As)
	}
}

// writeFrame emits one section — kind, payload length, payload parts,
// CRC over the concatenated parts — without requiring the parts to live
// in one buffer.
func writeFrame(bw *bufio.Writer, kind byte, parts ...[]byte) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if err := bw.WriteByte(kind); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	if _, err := bw.Write(tmp[:binary.PutUvarint(tmp[:], uint64(total))]); err != nil {
		return err
	}
	crc := uint32(0)
	for _, p := range parts {
		if _, err := bw.Write(p); err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	var cb [4]byte
	binary.LittleEndian.PutUint32(cb[:], crc)
	_, err := bw.Write(cb[:])
	return err
}

// StreamWriter encodes one WMSNAP stream incrementally. The call
// sequence is NewStreamWriter, then per shard (in shard order)
// BeginShard / WriteEntries... / EndShard, then optionally
// WriteAdmission, then Close. Errors are sticky: after any failure
// every later call (including Close) reports the first error. A
// StreamWriter is not safe for concurrent use.
type StreamWriter struct {
	enc     *encoder
	shards  int
	next    int
	inShard bool
	entries uint64
	closed  bool
	err     error
}

// NewStreamWriter starts a WMSNAP stream on w declaring shardCount
// shard sections and the snapshot clock (the largest logical time
// across shards at capture). The caller must Close the writer — also on
// error paths — to release its pooled encoder.
func NewStreamWriter(w io.Writer, shardCount int, clock float64) (*StreamWriter, error) {
	if shardCount < 0 {
		return nil, fmt.Errorf("persist: negative shard count %d", shardCount)
	}
	sw := &StreamWriter{enc: getEncoder(w), shards: shardCount}
	e := sw.enc
	fail := func(err error) (*StreamWriter, error) {
		sw.err, sw.closed, sw.enc = err, true, nil
		putEncoder(e)
		return nil, err
	}
	if _, err := e.bw.WriteString(magic); err != nil {
		return fail(err)
	}
	if err := e.bw.WriteByte(version); err != nil {
		return fail(err)
	}
	e.misc.buf.Reset()
	e.misc.uvarint(uint64(shardCount))
	e.misc.float(clock)
	if err := writeFrame(e.bw, sectionMeta, e.misc.buf.Bytes()); err != nil {
		return fail(err)
	}
	return sw, nil
}

// fail latches the first error and returns it.
func (sw *StreamWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// BeginShard opens the next shard section with its cache-level header
// (every CacheState field except Entries, which arrive via
// WriteEntries). Shards must be begun in index order, matching the
// declared count.
func (sw *StreamWriter) BeginShard(header *core.CacheState) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed || sw.inShard {
		return sw.fail(fmt.Errorf("persist: BeginShard out of sequence (closed %v, open shard %v)", sw.closed, sw.inShard))
	}
	if sw.next >= sw.shards {
		return sw.fail(fmt.Errorf("persist: shard %d exceeds the declared count %d", sw.next, sw.shards))
	}
	e := sw.enc
	e.head.buf.Reset()
	e.head.uvarint(uint64(sw.next))
	e.head.varint(header.Capacity)
	e.head.uvarint(uint64(header.K))
	e.head.uvarint(uint64(header.Policy))
	e.head.float(header.Clock)
	e.head.float(header.FirstTime)
	e.head.bool(header.HaveFirst)
	e.head.float(header.MinDt)
	e.head.uvarint(uint64(header.MissesSincePrune))
	writeStats(&e.head, header.Stats)
	e.body.buf.Reset()
	sw.entries = 0
	sw.inShard = true
	return nil
}

// WriteEntries appends entries to the open shard section. The entries
// are fully encoded before it returns, so the caller may reuse the
// slice (and its elements' sub-slices) immediately.
func (sw *StreamWriter) WriteEntries(entries []core.EntryState) error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.inShard {
		return sw.fail(fmt.Errorf("persist: WriteEntries without an open shard"))
	}
	e := sw.enc
	for i := range entries {
		if err := e.writeEntry(&e.body, &entries[i]); err != nil {
			return sw.fail(err)
		}
	}
	sw.entries += uint64(len(entries))
	return nil
}

// EndShard frames the open shard section onto the stream: header bytes,
// entry count, entry bytes, one CRC over all of it — byte-identical to
// the section a monolithic Write produces.
func (sw *StreamWriter) EndShard() error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.inShard {
		return sw.fail(fmt.Errorf("persist: EndShard without an open shard"))
	}
	e := sw.enc
	var tmp [binary.MaxVarintLen64]byte
	cnt := tmp[:binary.PutUvarint(tmp[:], sw.entries)]
	if err := writeFrame(e.bw, sectionCache, e.head.buf.Bytes(), cnt, e.body.buf.Bytes()); err != nil {
		return sw.fail(err)
	}
	sw.next++
	sw.inShard = false
	return nil
}

// WriteAdmission appends the adaptive admission section. Call it after
// the last shard, before Close.
func (sw *StreamWriter) WriteAdmission(st *admission.TunerState) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed || sw.inShard {
		return sw.fail(fmt.Errorf("persist: WriteAdmission out of sequence (closed %v, open shard %v)", sw.closed, sw.inShard))
	}
	e := sw.enc
	e.misc.buf.Reset()
	writeAdmission(&e.misc, st)
	if err := writeFrame(e.bw, sectionAdmission, e.misc.buf.Bytes()); err != nil {
		return sw.fail(err)
	}
	return nil
}

// Close writes the end marker, flushes the stream and releases the
// pooled encoder. It is idempotent and must be called on every path —
// after an error it releases resources and reports the sticky error
// without emitting further bytes.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	defer func() {
		putEncoder(sw.enc)
		sw.enc = nil
	}()
	if sw.err != nil {
		return sw.err
	}
	if sw.inShard {
		return sw.fail(fmt.Errorf("persist: stream closed with shard %d still open", sw.next))
	}
	if sw.next != sw.shards {
		return sw.fail(fmt.Errorf("persist: stream closed after %d of %d declared shards", sw.next, sw.shards))
	}
	if err := writeFrame(sw.enc.bw, sectionEnd); err != nil {
		return sw.fail(err)
	}
	return sw.fail0(sw.enc.bw.Flush())
}

// fail0 latches err (which may be nil) and returns the sticky error.
func (sw *StreamWriter) fail0(err error) error {
	if err != nil {
		return sw.fail(err)
	}
	return sw.err
}
