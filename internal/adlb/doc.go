// Package adlb reimplements the Asynchronous Dynamic Load Balancer
// (Lusk, Pieper, Butler: "More scalability, less pain", SciDAC Review
// 2010) that underlies the Swift/T runtime described in the paper.
//
// A deployment partitions an MPI world into clients and servers (the last
// N ranks). Servers hold typed priority work queues and a distributed
// single-assignment data store. Clients submit work with Put — optionally
// targeted at a specific rank — and block in Get until work of a matching
// type is delivered. Servers steal work from one another when their own
// clients go idle, and run Safra's termination-detection algorithm on a
// token ring to discover global quiescence, at which point every parked
// Get returns "no more work" and the deployment shuts down.
//
// The data store provides Turbine's typed futures: Create/Store/Retrieve
// with single-assignment semantics, Subscribe for close notifications
// (delivered as targeted work items through the normal Get path), and
// containers with insert/lookup/enumerate plus write-refcount close
// semantics. A scalar needs no Create: an id its owner issued through
// Unique comes into being at its first Store (typed by the value, and
// closed) or its first Subscribe (an open placeholder with no type, which
// the first Store types; reads fail until then). An id the owner never
// issued still fails Store and Subscribe. Create is for containers and
// for typed declarations, whose Store checks the type. Lookup only finds:
// a container member is always inserted by its writer.
// Stats.UnfilledTDs counts the entries subscribed to or created but
// never closed when a server drains.
//
// The client protocol is fourteen request opcodes, each with a caller in
// the Turbine runtime: work (put, get, fail, leave), ids (unique), the
// data store (create, store, subscribe, insert, lookup, enumerate,
// write-refcount) and the columnar plane (retrieve_chunk, store_chunk).
// Nothing asks a datum whether it exists or what type it has: a reader
// waits on it through Subscribe and names the type it wants.
//
// Subscribe is batched, and is the only form on the wire: the request is
// opSubscribe, the subscriber's rank (i32), and a counted id list (u32 n,
// n x i64); the response is a status byte and n closed flags as one
// length-prefixed byte field. The client groups a call's ids by owning
// server and sends each server one request, so a rule waiting on a whole
// container's members costs O(servers) RPCs. A server answers its group
// all-or-nothing: an id it neither holds nor issued fails the request,
// naming the id, before any subscriber is registered or placeholder
// made. A value has one wire form too, the chunk row: RetrieveChunk and
// StoreChunk move a columnar chunk frame per owning server, Store sends
// the id and a one-row chunk, and Retrieve is a one-id retrieve_chunk
// whose not-found reply carries the id. A scalar's DataType is its row
// kind. The same chunk frame is exported as EncodeChunkFrame/
// DecodeChunkFrame for callers that carry a chunk as a work-item payload
// (swiftd frames its fragment tasks and responses this way): decoding
// validates the chunk's cross-column invariants and rejects trailing
// bytes, and the decoded columns alias the frame, so rows that outlive it
// are copied out. Counts read off the wire (here, in RetrieveChunk's id
// list, in the enumerate response, and in the dims and offset tables of
// chunk frames) go through decoder.count, which checks them against the
// bytes remaining in the frame before anything is allocated.
// Stats.DataOps counts requests, not ids: one batch to one server is one
// data operation, whatever it carries. The Stats.Op* counters split it
// by kind of request (create, store, subscribe, container insert, lookup
// and enumerate, write-refcount, chunk load — Retrieve's one id included
// — and chunk store) and sum to it exactly, so what a program pays the
// data store for — a third of it was once create+store pairs for
// compiler literals — reads off `swiftt -stats` instead of off the code
// generator.
package adlb
