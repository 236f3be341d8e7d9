(** Reconnecting retry client: {!Client} hardened for hostile networks.

    A [Resilient.t] wraps a connect thunk instead of one connection.
    Every operation runs under a bounded, seeded retry policy
    ({!Lamp_runtime.Executor.with_retry} with
    {!Lamp_runtime.Executor.exponential_backoff}): when an attempt
    fails with a {e retryable} error — {!Client.Connection_lost},
    {!Client.Timed_out}, a server [Overloaded] (whose [retry_after_s]
    floors the next sleep) or [Corrupt_frame] reply, and optionally
    [Rejected] — the wrapper reconnects, re-runs {!Client.hello} under
    the same stable client name, and re-issues the request.

    Re-issuing is safe because every {!prepare}/{!execute}/{!ingest}
    carries an idempotency key drawn from a per-wrapper counter: the
    key is allocated {e once per logical operation} and re-sent
    verbatim on every retry of it, so the server's dedup window
    (keyed by client name) replays the recorded response instead of
    executing twice. A keyed ingest that is retried five times still
    counts its facts exactly once. The counter's high bits are a
    per-wrapper nonce (overridable with [?key_nonce]), so a restarted
    process that reuses a client name draws from a fresh key range
    instead of colliding with the dead process's entries still in the
    server's window — and the server cross-checks every replay against
    a digest of the op, so even a colliding key yields a typed
    error, never another operation's response. The key travels in the
    fixed {!Wire.header} of every request, so a transport failure
    after the send is retried like any other: even for {!ingest}, the
    one non-idempotent op, the replay makes the retry exactly-once.

    All failure handling is deterministic given the seed: the backoff
    schedule is a pure function of [(seed, attempt)], and no attempt
    ever sleeps less than the server's [retry_after_s] hint.

    Thread-safety: a wrapper serializes its operations under an
    internal lock (one underlying connection), so sharing one across
    threads is safe but not concurrent — give each session its own, as
    with {!Client}. *)

type config = {
  max_attempts : int;  (** Total attempts per operation (>= 1). *)
  seed : int;  (** Seeds the deterministic backoff jitter. *)
  base_delay_s : float;  (** First retry delay. *)
  max_delay_s : float;  (** Cap on the exponential schedule. *)
  budget_s : float option;
      (** Cumulative sleep budget across one operation's retries; a
          retry that would exceed it propagates the failure instead. *)
  retry_rejected : bool;
      (** Also retry [Rejected] (quota) errors. Off by default: pacing
          out a quota rejection is a policy decision, not a transport
          recovery. *)
}

val default_config : config
(** 5 attempts, seed 1, 1ms base / 250ms cap, 10s budget,
    [retry_rejected = false]. *)

type t

val create :
  ?config:config ->
  ?client:string ->
  ?key_nonce:int ->
  (unit -> Client.t) ->
  t
(** [create connect] wraps the thunk; no connection is made until the
    first operation. [client] (default ["resilient"]) is the stable
    session name sent in {!Client.hello} on every (re)connect — it is
    the server's dedup-window key, so two wrappers sharing a name also
    share a replay window. [key_nonce] (masked to 30 bits) pins the
    idempotency-key range; by default it is drawn from time-and-pid
    entropy so restarted wrappers do not reuse keys — pass it
    explicitly when a test needs reproducible keys.
    @raise Invalid_argument on a non-positive [max_attempts] or a
    negative delay. *)

val prepare : t -> instance:string -> query:string -> Client.prepared

val execute :
  t ->
  instance:string ->
  ?mode:Wire.mode ->
  Wire.plan_ref ->
  Lamp_relational.Instance.t * Lamp_mpc.Stats.t option

val ingest : t -> instance:string -> Lamp_relational.Fact.t list -> int
(** Retried variants of the {!Client} operations under an idempotency
    key: identical results, at-most-once server-side effects per
    logical call. *)

val stats : t -> Wire.server_stats
val health : t -> bool
val metrics : t -> string
val trace_dump : ?limit:int -> t -> Wire.span_info list
(** Read-only operations, retried but unkeyed (idempotent by
    nature). *)

val retries : t -> int
(** Retry attempts performed so far across all operations — the
    chaos benches assert this is non-zero under fault plans that
    force re-execution. *)

val close : t -> unit
(** Close the current connection, if any. The wrapper may be reused: a
    later operation reconnects. *)
