package turbine

// A work item's payload is a record: one chunk frame
// (adlb.AppendChunkFrame), so every TypeWork payload decodes one way.
// A leaf record is a lang.Leaf's rows: a compiled interlanguage call,
// which the worker runs through the rank's lang.Table with no Tcl on the
// way. A script record is one string row: Tcl the worker's interpreter
// evaluates (template and app functions, sw:leaf, sw:vunpack, the vector
// gather). A leaf's arguments and result move between the ADLB data store
// and its engine through the typed data plane below, so numeric and blob
// payloads cross the boundary as typed values — blob bytes flow store ->
// engine -> store with their dims and element kind intact, and nothing is
// formatted as text unless a string slot demands it. A leaf's result is
// a Store, which rides the worker's next Get when the worker's home
// server owns the output, so such a leaf costs the worker a share of one
// round trip: its inputs come with the item, its output goes with the
// request for the next one. The chunk surface (LoadChunk, StoreChunk) carries
// argument vectors and backs the container<->vector bridge: gathers and
// scatters cost one RPC per owning server, not one per element.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/adlb"
	"repro/internal/chunk"
	"repro/internal/faultinject"
	"repro/internal/lang"
)

// scriptRecord frames a Tcl script as a script record.
func scriptRecord(script string) ([]byte, error) {
	var c chunk.Chunk
	c.AppendString(script)
	return adlb.AppendChunkFrame(nil, &c)
}

// leafRecord frames a leaf call as a leaf record, appended to dst,
// building its rows in rows.
func leafRecord(dst []byte, l *lang.Leaf, rows *chunk.Chunk) ([]byte, error) {
	rows.Reset()
	if err := l.AppendRows(rows); err != nil {
		return dst, err
	}
	return adlb.AppendChunkFrame(dst, rows)
}

// record is a worker's decoded work item, its storage reused from one
// task to the next.
type record struct {
	rows chunk.Chunk
	leaf lang.Leaf
}

// decode reads a work item's payload: a leaf record into r.leaf, or a
// script record, copied out of the payload.
func (r *record) decode(payload []byte) (script string, isLeaf bool, err error) {
	if err := adlb.DecodeChunkFrame(payload, &r.rows); err != nil {
		return "", false, fmt.Errorf("turbine: work record: %w", err)
	}
	if r.rows.Len() == 1 && r.rows.Kinds[0] == chunk.KindString {
		return string(r.rows.Raw), false, nil
	}
	if err := lang.DecodeLeaf(&r.rows, &r.leaf); err != nil {
		return "", false, err
	}
	return "", true, nil
}

// dataPlane is the typed LoadChunk/StoreAs/StoreChunk surface over one
// rank's ADLB client (Env.plane); num is a stored number's bytes.
type dataPlane struct {
	cl  *adlb.Client
	num [8]byte
}

// toStore converts a typed lang value to the stored form of the named
// turbine type (numbers parse from strings, blobs wrap raw string bytes;
// blob metadata survives verbatim). A number is encoded into num, which
// the value's bytes then are.
func toStore(td string, v *lang.Value, num *[8]byte) (adlb.Value, error) {
	switch td {
	case "integer":
		n, err := v.AsInt()
		if err != nil {
			return adlb.Value{}, err
		}
		binary.LittleEndian.PutUint64(num[:], uint64(n))
		return adlb.Value{Type: adlb.TypeInteger, Bytes: num[:]}, nil
	case "float":
		f, err := v.AsFloat()
		if err != nil {
			return adlb.Value{}, err
		}
		binary.LittleEndian.PutUint64(num[:], math.Float64bits(f))
		return adlb.Value{Type: adlb.TypeFloat, Bytes: num[:]}, nil
	case "string":
		return adlb.StringValue(v.Render()), nil
	case "blob":
		b := v.AsBlob()
		return adlb.Value{Type: adlb.TypeBlob, Bytes: b.Data, Dims: b.Dims, Elem: uint8(b.Elem)}, nil
	case "void":
		return adlb.VoidValue(), nil
	}
	return adlb.Value{}, fmt.Errorf("turbine: data plane: cannot store %s as %q", v.Kind(), td)
}

// StoreAs stores a typed value into a TD of the named turbine type,
// converting where the kinds differ. On a worker, a store its home
// server owns rides the next Get, in the message that settles the
// task's lease.
func (p *dataPlane) StoreAs(id int64, td string, v lang.Value) error {
	if err := faultinject.At(faultinject.SiteDataPlaneStore); err != nil {
		return err
	}
	sv, err := toStore(td, &v, &p.num)
	if err != nil {
		return err
	}
	return p.cl.Store(id, sv)
}

// LoadChunk retrieves many closed TDs as one columnar chunk: a leaf's
// inputs from the rows its work item carried, the rest via the ADLB
// chunk gather, one RPC per owning server. On the single-source fast
// path the returned columns alias the frame, per the Client zero-copy
// contract.
func (p *dataPlane) LoadChunk(ids []int64) (lang.Chunk, error) {
	return p.cl.RetrieveChunk(ids)
}

// StoreChunk appends a columnar chunk to a container TD in one write to
// the container's owner (consecutive integer subscripts after any
// existing members). The caller keeps (and eventually drops) the
// container's write reference.
func (p *dataPlane) StoreChunk(container int64, c lang.Chunk) error {
	if err := faultinject.At(faultinject.SiteDataPlaneStore); err != nil {
		return err
	}
	return p.cl.StoreChunk(container, c)
}
