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
// Every request frame is a Get, and every request one of its entries,
// each with a caller in the Turbine runtime: work (put), ids (unique),
// the data store (create, store, insert, lookup, enumerate,
// write-refcount) and the columnar plane (retrieve_chunk, store_chunk).
// The six writes are answered only by the Get's status; the four reads —
// lookup, enumerate, retrieve_chunk, and unique, which reads a block of
// ids — each get an answer in the Get's reply.
// Nothing asks a datum whether it exists or what type it has: a reader
// waits on it and names the type it wants.
//
// A Get carries what a client changes at a server and what it reads
// there: the work type (i32), a flags byte (leased, depart), the count
// of items it wants (u8: up to maxDelivery for a leased Get, 1 for any
// other, 0 for a Get that wants nothing or departs) and a counted list
// of entries in program order, each length-prefixed and starting with
// its kind: a write or a read (its opcode and body) or a settle (kind
// 0), the end of a leased task — its lease (i64), how it ended (u8:
// done, failed, handed back) and a failed task's reason and retriable
// flag. A client's writes for its home server join the entries of its
// next Get there, beside the settles of the tasks that ended, so a
// worker's loop pays no round trip to report a task done or to store its
// result; its writes for another server go to it as a Get that wants
// nothing. Pending writes go out, and the reply is awaited, at maxBatch
// writes or maxBatchBytes (1 MiB), before a write that would take them
// past that bound (so a large write travels alone, far under the
// transport's frame limit), before a write or a read for another server
// (so writes keep program order across servers), and at Client.Flush,
// which a Turbine engine calls as each control action ends and swiftd's
// gateway after each Put. So a client never blocks with a write unsent
// or unanswered, and Safra's protocol sees what it saw when every write
// was a round trip. The server applies the entries in order, each write
// through one handler per write and each read through server.answer,
// counted in Stats as they apply (the Get frame kept as a store's
// backing), and each settle through server.settle, then serves the Get.
// The closes the writes made are announced before the Get is served, so
// a rule a task's result releases can go out in the reply, or, in a Get
// that wants nothing, after the reply, to the clients they are for. A
// refused write skips the rest of its task's writes and fails the next
// done settle retriably with the refusal (a failed or handed-back settle
// between them names another lease and leaves it standing); one with no
// done settle after it refuses the Get, with the text a lone write's
// refusal had, and the writes and reads after it are not applied. A
// frame that is not a Get, an entry count the frame cannot hold, an
// empty entry or one of an unknown kind, a read in a Get that wants
// work, a settle cut short or of lease 0 or of an unknown kind, an item
// handed back by a Get that does not depart, a departing Get that wants
// work, a want past maxDelivery and an unknown flag are decode errors
// before any entry applies; a request whose own body is malformed is a
// decode error when the server reaches it, after the entries before it
// applied. Either ends the run.
//
// A read is the last entry of a Get that wants nothing, since the
// client waits on its answer: it goes out at once with the entries
// pending for its server, one request frame, and sees them applied. The
// reply is the Get's status, each read's answer in entry order (a
// status, then what the read found, or an error's text that leaves the
// entries after it to apply), and a count of no items.
//
// A lease ends one way, by a settle riding a Get (server.settle). Fail
// sends its failed settle at once, behind the entries waiting, in a Get
// that wants nothing, and drops a failed running task's writes still
// pending — for the home server and for another — so its outputs stay
// open for the re-run; a Fail of a lease whose done settle went ahead of
// it is refused as an unknown lease, so a lease settles at most once.
// Leave is a Get that departs, carrying every ended task's writes and
// settle and handing back the held items never started, requeued with no
// attempt charged; the server departs the client, and reclaims every
// lease it still holds — the running task, whose pending writes are
// dropped — charging each one attempt, with the item pinned to no one.
// It answers OK even while it drains. NotifyCrashed sends the same Get
// with no entries.
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
// first and hands them out one per GetLeased with no RPC; a held item
// is not stealable, and the shrinking shares bound the tail instead.
// The items' payloads and rows alias the reply frame, which the client
// keeps until the Get that asks for work next is on the wire; a write
// copies its value into the entries, so it may alias the frame, or
// anything else. The entries go to the server, in a Get that wants
// nothing, before the next held item starts when the task that ended
// queued a Put (its waiters, a fragment's caller say, should not wait
// on the next task), left them past maxBatchBytes, or sent writes — a
// Store to another server, say: so a client lost after a finished
// task's writes landed never has that task re-run into "already set",
// the window is one task, as with a one-item Get. A task that only
// Stores for its home server sends nothing: its results ride the next
// Get.
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
// Get, Fail or Leave, and send a read only for ids owned elsewhere.
//
// A message is built in the frame it travels in: the encoder draws it
// from the world's pool (mpi.Comm.Frame), sized once when the value's
// size is known, and hands it over with mpi.Comm.SendFrame. From then
// the receiver owns it: a client keeps a reply frame while values alias
// it, a server keeps a Get frame that stored a value, and each releases
// the rest to the pool.
//
// A value has one wire form, the chunk row: RetrieveChunk and
// StoreChunk move a columnar chunk frame per owning server, a Store is
// the id and a one-row chunk, and Retrieve is a one-id retrieve_chunk
// whose not-found answer carries the id. A scalar's DataType is its row
// kind. The same chunk frame is exported as EncodeChunkFrame/
// DecodeChunkFrame for callers that carry a chunk as a work-item payload
// (swiftd frames its fragment tasks and responses this way): decoding
// validates the chunk's cross-column invariants and rejects trailing
// bytes, and the decoded columns alias the frame, so rows that outlive it
// are copied out. Counts read off the wire (here, in RetrieveChunk's id
// list, a Put's wait ids, a Get's entries, a Get reply's items and
// their row ids, the enumerate answer, and the dims and offset tables
// of chunk frames) go through
// decoder.count, which checks them against the bytes remaining in the
// frame before anything is allocated.
// Stats.DataOps counts requests, not ids or frames: one chunk to one
// server is one data operation, whatever it carries, and each write or
// read a Get carries is one, but a put or a unique is none. The
// Stats.Op* counters split it
// by kind of request (create, store, container insert, lookup
// and enumerate, write-refcount, chunk load — Retrieve's one id included
// — and chunk store) and sum to it exactly. What a
// program pays the data store for — a third of it was once create+store
// pairs for compiler literals — reads off `swiftt -stats` instead of off
// the code generator.
package adlb
