package turbine

// The typed data plane: lang.Install's <name>::call commands move
// interlanguage arguments and results between the ADLB data store and
// embedded engines through this adapter, so numeric and blob payloads
// cross the boundary as typed values — blob bytes flow store -> engine
// -> store with their dims and element kind intact, and nothing is
// formatted as text unless a string slot demands it. The chunk surface
// (LoadChunk, StoreChunk) carries argument vectors and backs the
// container<->vector bridge: gathers and scatters cost one RPC per owning
// server, not one per element.

import (
	"fmt"

	"repro/internal/adlb"
	"repro/internal/faultinject"
	"repro/internal/lang"
)

// DataPlane returns the typed LoadChunk/StoreAs/StoreChunk surface over
// this rank's ADLB client, for installing embedded-language engines.
func (e *Env) DataPlane() lang.DataPlane { return dataPlane{cl: e.Client} }

type dataPlane struct {
	cl *adlb.Client
}

// toStore converts a typed lang value to the stored form of the named
// turbine type (numbers parse from strings, blobs wrap raw string bytes;
// blob metadata survives verbatim).
func toStore(td string, v lang.Value) (adlb.Value, error) {
	switch td {
	case "integer":
		n, err := v.AsInt()
		if err != nil {
			return adlb.Value{}, err
		}
		return adlb.IntValue(n), nil
	case "float":
		f, err := v.AsFloat()
		if err != nil {
			return adlb.Value{}, err
		}
		return adlb.FloatValue(f), nil
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
// converting where the kinds differ.
func (p dataPlane) StoreAs(id int64, td string, v lang.Value) error {
	if err := faultinject.At(faultinject.SiteDataPlaneStore); err != nil {
		return err
	}
	sv, err := toStore(td, v)
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
func (p dataPlane) LoadChunk(ids []int64) (lang.Chunk, error) {
	return p.cl.RetrieveChunk(ids)
}

// StoreChunk appends a columnar chunk to a container TD in one RPC to
// the container's owner (consecutive integer subscripts after any
// existing members). The caller keeps (and eventually drops) the
// container's write reference.
func (p dataPlane) StoreChunk(container int64, c lang.Chunk) error {
	if err := faultinject.At(faultinject.SiteDataPlaneStore); err != nil {
		return err
	}
	return p.cl.StoreChunk(container, c)
}
