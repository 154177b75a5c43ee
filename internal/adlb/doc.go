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
// Get returns "no more work" and the deployment shuts down. A server
// acts on messages: it sleeps in Recv, with a timeout only while a steal
// retry or the hang watchdog is armed, and leaves its loop in the
// iteration that completes its drain, so no wait comes between the last
// NO_MORE_WORK and Serve's return.
//
// The data store provides Turbine's typed futures: Create/Store/Retrieve
// with single-assignment semantics, rules held until their data closes
// (a Put with wait ids, delivered through the normal Get path), and
// containers with insert/lookup/enumerate plus write-refcount close
// semantics. A scalar needs no Create: an id its owner issued through
// Unique comes into being at its first Store (typed by the value, and
// closed) or its first wait — a rule held on it — as an open placeholder
// with no type, which the first Store types (reads fail until then). An
// id the owner never issued still fails Store and a Put that waits on
// it. Create is for containers and for typed declarations, whose Store
// checks the type. Lookup only finds: a container member is always
// inserted by its writer.
// Stats.UnfilledTDs counts the entries waited on or created but never
// closed when a server drains.
//
// The client protocol is twelve request opcodes, each with a caller in
// the Turbine runtime: work (put, get), ids (unique), the
// data store (create, store, insert, lookup, enumerate, write-refcount),
// the columnar plane (retrieve_chunk, store_chunk) and batch. The six
// writes — put, create, store, insert, write-refcount and store_chunk,
// whose reply is only a status — travel only inside a batch frame: a
// client's writes to one server, each length-prefixed, answered by one
// reply. The other six each start a frame of their own, answered by
// its own reply. A client's pending frame goes out, and its reply is
// awaited, when it holds maxBatch writes or maxBatchBytes (1 MiB),
// before a write that would take it past that bound (so a large write
// travels alone, far under the transport's frame limit), when a write
// for another server is queued (so writes keep program order across
// servers), before any request that waits for an answer, and at
// Client.Flush, which a Turbine engine calls as each control action
// ends, a worker as each task ends, and swiftd's gateway after each Put.
// So a client never blocks with a write unsent or unanswered, and
// Safra's protocol sees what it saw when every write was a round trip. The server applies a
// batch's writes in order through one handler per write and stops at
// the first refusal: the reply is OK, or the refused write's opcode and
// message, which the client reports as that write's error with the text
// a lone write's refusal had. A batch whose framing is malformed
// (empty, a length cut short, a request that is not a write, a nested
// batch) is a decode error before any write applies; a write whose own
// body is malformed is a decode error when the server reaches it, after
// the writes before it applied. Either ends the run. Deliveries the batch's closes release
// go to the clients they are for, after the batching client's reply,
// and Stats counts each write of a batch as it applies.
// Nothing asks a datum whether it exists or what type it has: a reader
// waits on it and names the type it wants.
//
// A Get is the work type (i32), a flags byte (leased, depart), the count
// of items it wants (u8: up to maxDelivery for a leased Get, 1 for any
// other, 0 for a Get that only settles or departs) and a counted list of
// settles, one for each leased task the client ended since its last Get,
// so the worker's loop pays no RPC to report a task done. A settle is
// the lease (i64), its kind (u8: done, failed, handed back) and an
// output id (i64; 0: no result), then a done task's result as a one-row
// chunk, Store's body — which Client.StoreResult holds for it when the
// client's home server owns the output — or a failed task's reason and
// retriable flag. The server applies each store as Store would (issued
// id, single assignment, type; the Get frame kept as the datum's
// backing), settles the lease and releases the rules the close frees,
// settle by settle, then serves the Get: store and settle are one
// message, and a rule a store releases can go out in the reply. A
// refused store fails its lease retriably with the refusal. A settle
// count the frame cannot hold, a settle of lease 0 or of an unknown
// kind, a result on a settle not done, a store of other than one row,
// an item handed back by a Get that does not depart, a departing Get
// that wants work, a want past maxDelivery and an unknown flag are
// decode errors. An output another server owns is an ordinary Store.
//
// A lease ends one way, by a settle riding a Get (server.settle). Fail
// sends its failed settle at once, behind the settles waiting, in a Get
// that only settles, and drops a failed running task's pending result; a
// Fail of a lease whose done settle went ahead of it is refused as an
// unknown lease, so a lease settles at most once.
// Leave is a Get that departs, carrying every ended task's settle and
// result and handing back the held items never started, requeued with
// no attempt charged; the server departs the client, and reclaims every
// lease it still holds — the running task, whose pending result is
// dropped so its output stays open for the re-run — charging each one
// attempt, with the item pinned to no one. It answers OK even while it
// drains. NotifyCrashed sends the same Get with no settles.
//
// A reply with work is a count of items, then each item's lease (when
// leased), payload and rows. A leased Get served from the untargeted
// queue takes the first item and then its share of what is left, by
// guided self-scheduling: at most maxDelivery-1 (7) more, and at most
// the queue left over divided among the server's clients that have not
// departed, so each share is a fraction of what remains and a draining
// queue goes out one item a Get; a share also stops before the reply
// passes maxBatchBytes (1 MiB), so an item with a large input travels
// alone. Targeted, parked and non-leased deliveries carry one item, and
// Stats.GetsServed counts items. The client holds the items beyond the
// first and hands them out one per GetLeased with no RPC, after sending
// its pending writes; a held item is not stealable, and the shrinking
// shares bound the tail instead. The items' payloads and rows alias the
// reply frame, which the client keeps until the Get that asks for work
// next is on the wire; a settle copies its result into the next Get's
// request as its task ends, so a result may alias the frame, or
// anything else, until then. Results past maxBatchBytes go to the
// server before the next held item starts, so their waiters do not wait
// on it. A task that sent writes — a Store to another server, say — is
// settled before the client starts another held item, by a Get that
// only settles when no Get for work is due (the one that sends large
// results too), so a client lost after a finished task's writes landed
// never has that task re-run into "already set": the window is one
// task, as with a one-item Get.
//
// Rules wait at the servers, as ADLB_Dput's tasks do, and a held Put is
// the one way to wait: a Turbine work rule is one, queued for any
// worker, and so is a control rule, targeted at the engine that made it.
// A Put carries a counted list of wait ids (none: an ordinary Put) and
// goes to the owner of the first. That server drops the ids it owns that are closed and
// holds the rule on its first open one; when none of its ids is open it
// forwards the rule, with the other owners' ids, to the next owner over
// sopPutForward, which Safra counts like any work-bearing message. With
// no id left open the rule is enqueued at its priority and target. A
// held rule moves on wherever a close happens: a Store, or a
// container's write refcount reaching zero. A repeated id is waited on
// once, an id its owner neither holds nor issued fails the Put (or, on a
// further owner, the run) with nothing held, and a rule still held when
// the run terminates fails it, named by its action; the hang watchdog
// counts held rules beside queued items. The stall reports meet at the
// master: at drain every other server sends it the list of rules it
// still holds (sopStallReport, empty when none) and returns nil, and
// the master, once it has every report, returns one error naming each
// server's stalled rules in server order. So the run fails
// deterministically, and only after each server has told its clients
// NO_MORE_WORK. Inputs ride the item: the
// server that delivers it writes a row for each of the item's wait ids
// that it owns into the Get response (a counted id list, then one chunk
// frame). Closed data never changes, so rows are read at delivery, and a
// requeued or stolen item is served them afresh. The client's Retrieve
// and RetrieveChunk answer those ids from the item, valid until its next
// Get, Fail or Leave, and make an RPC only for ids owned elsewhere.
//
// A value has one wire form, the chunk row: RetrieveChunk and
// StoreChunk move a columnar chunk frame per owning server, a Store is
// the id and a one-row chunk, and Retrieve is a one-id retrieve_chunk
// whose not-found reply carries the id. A scalar's DataType is its row
// kind. The same chunk frame is exported as EncodeChunkFrame/
// DecodeChunkFrame for callers that carry a chunk as a work-item payload
// (swiftd frames its fragment tasks and responses this way): decoding
// validates the chunk's cross-column invariants and rejects trailing
// bytes, and the decoded columns alias the frame, so rows that outlive it
// are copied out. Counts read off the wire (here, in RetrieveChunk's id
// list, a Put's wait ids, a Get's settles, a Get reply's items and
// their row ids, the enumerate response, and the dims and offset tables
// of chunk frames) go through
// decoder.count, which checks them against the bytes remaining in the
// frame before anything is allocated.
// Stats.DataOps counts requests, not ids or frames: one chunk to one
// server is one data operation, whatever it carries, and each write of
// a batch frame is one. The Stats.Op* counters split it
// by kind of request (create, store, container insert, lookup
// and enumerate, write-refcount, chunk load — Retrieve's one id included
// — and chunk store) and sum to it exactly. A result riding a Get counts
// as one store, in OpStore and DataOps, though it is not its own RPC,
// so the counts read the same whichever way a value travels. What a
// program pays the data store for — a third of it was once create+store
// pairs for compiler literals — reads off `swiftt -stats` instead of off
// the code generator.
package adlb
