(** Point-to-point network with authenticated channels and a rushing,
    static adversary, executed under a pluggable {!Sched.backend}.
    Messages sent in round r arrive at the start of round r+1;
    honest-to-honest traffic cannot be dropped. On the async backend the
    within-round delivery *order* and the virtual clock additionally
    follow the seeded per-edge latency model (see {!Sched}); with all
    chaos knobs at zero every backend produces a byte-identical
    transcript. *)

type t

type handler = round:int -> inbox:Wire.msg list -> unit
(** One party's step function for one round; it sends by calling {!send}. *)

type adversary = {
  adv_name : string;
  adv_step : t -> round:int -> honest_staged:Wire.msg list -> unit;
      (** Invoked after the honest parties of a round have acted. Rushing:
          [honest_staged] is everything they just sent. The adversary sends
          on behalf of corrupt parties via {!send}. *)
}

(** {1 Observers}

    Every consumer of the traffic besides the built-in {!Metrics} meter is
    an observer, fixed at {!create}. Each send and each delivery is charged
    its wire size once ([bits] = 8 * {!Wire.size}) and handed to every
    observer once, in list order; with none the choke point does no extra
    work. Observers read the round from the network. *)

type mark =
  | Phase of string  (** a named protocol phase is entered *)
  | Phase_end  (** the innermost open phase is left *)
  | Committee of { level : int; idx : int; members : int list }
  | Decide of { party : int; payload : bytes }  (** first accepted output *)
  | Corrupt of int
      (** once per statically corrupt party at {!create}, then once per
          {!mark_corrupt} upgrade *)

type observer = {
  on_create : t -> unit;  (** once, inside {!create} *)
  on_send : t -> bits:int -> Wire.msg -> unit;  (** in send order *)
  on_deliver : t -> bits:int -> Wire.msg -> unit;  (** in delivery order *)
  on_round_end : t -> scheduled:int -> unit;
      (** after delivery; [scheduled] counts the handlers the loop ran *)
  on_mark : t -> mark -> unit;
}

val observers :
  ?audit:Repro_obs.Audit.t ->
  ?recorder:Repro_obs.Recorder.t ->
  ?tap:(round:int -> Wire.msg -> unit) ->
  unit ->
  observer list
(** Adapters for the three consumers: the transcript [tap] sees every send
    with its staging round; the [recorder] logs sends (stamped with the
    virtual time on the async backend), phase entries, committees,
    decisions (a one-byte payload as ["0"]/["1"], longer ones by digest)
    and the corrupt set; the [audit]or takes sends, deliveries, round
    closes, the phase stack and the corrupt set its checks skip; {!create}
    raises [Invalid_argument] when the auditor was made for another [n]. *)

val create :
  ?backend:Sched.backend -> ?observers:observer list -> n:int ->
  corrupt:int list -> unit -> t
(** [backend] defaults to {!Sched.Sparse}, [observers] to none. *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] runs [f] between the marks [Phase name] and
    [Phase_end] (the latter even on exceptions). *)

val mark : t -> mark -> unit

val observed : t -> bool
(** Whether any observer is attached, to skip building unread marks. *)

val virtual_time : t -> int
(** The async executor's virtual clock (the round number on the lock-step
    backends, where the two coincide). Sends are stamped with it in the
    flight recorder; the per-round delivery barrier advances it. *)

val async_stats : t -> Sched.stats option
(** Delivery statistics of the async executor ([None] on the lock-step
    backends): latency maxima, pre-GST retransmissions, and the sampled
    (send, deliver) log the partial-synchrony checks run against. *)

val set_condition : t -> Sched.condition -> unit
(** Attach a network condition (partition / churn / delay / adaptive
    corruption — see {!Sched.condition}): it routes every subsequent
    delivery, may hold parties dark, and may upgrade the corrupt set after
    observing honest traffic. Raises [Invalid_argument] on the lock-step
    backends, which have no delivery heap to program. *)

val mark_corrupt : t -> int -> unit
(** Upgrade one party to the corrupt set mid-run (the adaptive adversary's
    move): idempotent, marks the upgrade to every observer, and stops the
    party's handlers from the next honest check on. *)

val n : t -> int
val metrics : t -> Metrics.t

val round : t -> int
val is_corrupt : t -> int -> bool
val is_honest : t -> int -> bool
val honest_parties : t -> int list
val corrupt_parties : t -> int list

val send : t -> src:int -> dst:int -> tag:string -> bytes -> unit
(** Stage one message for delivery next round. Raises [Invalid_argument] if
    [src]/[dst] is out of range, or — channels being authenticated — if the
    call happens during the adversary's turn of a round with an honest
    [src]: the adversary can never impersonate an honest party. *)

val send_many : t -> src:int -> dsts:int list -> tag:string -> bytes -> unit

(** {1 The round loop}

    One loop executes every round: the honest, up parties of the round's
    active set act in ascending party order, then the adversary, then
    delivery, then the observers' round close. The three entry points
    differ only in the active set; on the {!Sched.Dense} backend it is
    always every party (the active-set optimization off), which is what
    makes that backend the reference the sparse modes are checked
    against. *)

val run :
  t ->
  ?adversary:adversary ->
  ?stop:(round:int -> bool) ->
  rounds:int ->
  handler option array ->
  unit
(** Run up to [rounds] further rounds, stopping early when [stop] fires.
    Every slot is visited each round, on every backend. *)

val run_parties :
  t ->
  ?adversary:adversary ->
  ?stop:(round:int -> bool) ->
  rounds:int ->
  (int * handler) list ->
  unit
(** Like {!run}, but only the listed parties act each round, visited in
    ascending party order (the same order {!run} visits a handler array).
    Behaviourally identical to {!run} with [None] in the unlisted slots,
    at O(listed) instead of O(n) per round. *)

val run_active :
  t ->
  ?adversary:adversary ->
  ?stop:(round:int -> bool) ->
  rounds:int ->
  extra:(round:int -> int list) ->
  (int -> handler option) ->
  unit
(** Delivery-driven sparse rounds: each round the active set is the parties
    holding a pending delivery plus [extra ~round] (the protocol's
    spontaneous actors, e.g. the initial broadcaster). [handler_of i] is
    consulted only for active parties. Behaviourally identical to {!run}
    whenever every party outside the active set would be a no-op — true for
    pure gossip/forwarding phases where action requires input. *)

val flush : t -> unit
(** Drop all in-flight messages (between composed protocol phases). *)
