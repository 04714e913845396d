package kits

import "repro/internal/highradix"

// ciosCore is the CIOS kit: the radix-2^64 word-serial fast path
// (highradix.Word), whose Mont and ModExp are the Core methods as is.
type ciosCore struct{ *highradix.Word }

func (ciosCore) Cycles() int { return 0 }
