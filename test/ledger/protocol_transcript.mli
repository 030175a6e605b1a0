(** The wire transcript of {!Serve.Protocol}: the encoding of every
    request and frame constructor, each optional member both present and
    absent, whether it decodes back to the same value; what minimal
    documents decode to (the defaults, re-encoded); and the error code —
    or, for frames, the bare fact of an error — for a fixed list of
    malformed documents.  A recorded copy is an oracle for any change to
    how the codec is written. *)

val text : unit -> string
(** One [tag<TAB>label<TAB>result] line per case, in a fixed order. *)
