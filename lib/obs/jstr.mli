(** JSON string literals for the hand-rolled report writers (RFC 8259). *)

val escape : string -> string
(** The body of a JSON string literal, without the quotes: the double
    quote and the backslash are backslash-escaped, newline, tab and
    carriage return use their short forms, every other byte below 0x20
    becomes a [\u00XX] escape, and all other bytes pass through. *)

val quote : string -> string
(** [escape s] between double quotes. *)
