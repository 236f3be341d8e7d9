(** The idempotency-key dedup window.

    One logical client op (a request whose {!Wire.header} carries a
    key) maps to one entry keyed by (client name, key). The first
    execution claims the entry, runs, and {!commit}s its recorded
    responses; any retry of the same key — typically after the chaos
    of a connection loss, when the client cannot know whether the op
    executed — {!acquire}s a [`Replay] and answers from the record
    instead of re-executing.
    An ingest therefore applies {e exactly once} no matter how many
    times the client has to re-send it.

    Entries survive until [capacity] later completions evict them
    (oldest finished first); in-flight (pending) entries are never
    evicted, and a concurrent retry of a pending key blocks until the
    first execution commits or aborts. Only {e successful} completions
    are recorded — a failed attempt {!abort}s so the retry really
    re-executes.

    Client names and keys are both client-chosen, so a (client, key)
    collision — a restarted client whose counter starts over, a second
    process sharing a name — is possible and must never replay another
    operation's recording. Every entry therefore carries a [digest] of
    the request it was recorded for; {!acquire} with the same key but a
    different digest answers [`Mismatch], which the server types as a
    bad request instead of silently returning the wrong responses. *)

type t

type token
(** A claimed pending entry; must be resolved with {!commit} or
    {!abort} exactly once. *)

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val acquire :
  t -> client:string -> key:int -> digest:int ->
  [ `Replay of Wire.response list | `Run of token | `Mismatch ]
(** [`Replay rs]: this op already completed; answer with [rs] (counted
    by {!hits}). [`Run tok]: the caller owns the execution. Blocks
    while another session is executing the same key {e with the same
    digest}; [`Mismatch]: the key exists (pending or finished) but was
    claimed for a different request — reject, never replay. [digest]
    is any collision-resistant-enough fingerprint of the op (the server
    uses {!Wire.checksum} of {!Wire.op_to_string}, which leaves out the
    header and its per-retry span id). *)

val commit : t -> token -> Wire.response list -> unit
(** Record the op's responses (in send order) and wake waiting
    retries. *)

val abort : t -> token -> unit
(** The execution failed or was shed: drop the entry so a retry
    re-executes. *)

val hits : t -> int
(** Replays served so far. *)

val length : t -> int
(** Entries currently held (pending + finished). *)
