(** Pre-decoded executable images: the simulator's input form.

    An image's text segment is decoded once into one {!Isa.Insn.t} per
    instruction word; instruction [i] sits at [text_base + 4 * i], the
    index {!Blocks.profile} counts by. {!Blocks} fuses this array into
    the executors {!Cpu.run_decoded} runs, resolving every static fact
    (operator, registers, latency, pipe, branch target) by matching on
    the instruction once at fuse time, and [Obs.Attr] classifies each
    executed instruction from it. Callers that simulate an image
    repeatedly (the measurement harness, the profiler) decode once and
    reuse. Treat the record as read-only. *)

type t = {
  image : Linker.Image.t;
  insns : Isa.Insn.t array;  (** the decoded text, one per word *)
}

val image : t -> Linker.Image.t

val of_image : Linker.Image.t -> (t, int * Isa.Decode.error) result
(** Decode the image's text. An error carries the absolute PC of the
    first undecodable instruction word. *)
