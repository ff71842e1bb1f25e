(** Tagged NOrec (paper Section 5.2).

    {!Norec}'s commit protocol (one implementation serves both), with the
    read set also tracked by MemTags: [TXBegin] tags the global sequence
    lock; every transactional read is a tagged load. Post-read validation
    is then a single local [Validate] — no re-read of the sequence lock, no
    value-based validation — as long as the tags hold. When the tag set
    breaks (capacity eviction or [Max_Tags] overflow), the transaction
    falls back to NOrec's value-based validation for the rest of its
    attempt; the value read set is maintained throughout, so the fallback
    is always possible.

    Lock acquisition at commit is a VAS on the sequence lock: if the
    transaction's tags (read set + lock) are intact, no writer interfered
    since TXBegin, so acquiring the lock needs no further validation. (The
    paper prescribes IAS here; invalidating the whole tagged read set at
    other cores would only abort readers of the same data gratuitously, so
    we use the VAS flavour and note the deviation in DESIGN.md.) *)

include Stm_intf.S
