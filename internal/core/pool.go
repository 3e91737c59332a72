package core

// The per-peer free list of call()'s reply channels (DESIGN.md §12). The
// message frames themselves — envelope, reply, callback request — are
// plain allocations: a resend or a duplicated delivery aliases a frame, so
// no receiver ever holds the last reference and nothing may recycle one.

// replyChanPoolCap bounds the per-peer free list of reply channels.
const replyChanPoolCap = 64

// takeReplyChanLocked pops a recycled reply channel (caller holds p.mu).
func (p *Peer) takeReplyChanLocked() chan rpcReply {
	if n := len(p.replyChans); n > 0 {
		ch := p.replyChans[n-1]
		p.replyChans = p.replyChans[:n-1]
		return ch
	}
	return make(chan rpcReply, 1)
}

// recycleReplyChan returns a reply channel to the free list. Callers may
// do so only on the success path, after consuming the channel's single
// reply: a call that gave up (timeout, send error) must abandon its
// channel, because a late reply could still be written into it and would
// poison the next call to reuse it.
func (p *Peer) recycleReplyChan(ch chan rpcReply) {
	p.mu.Lock()
	if len(p.replyChans) < replyChanPoolCap {
		p.replyChans = append(p.replyChans, ch)
	}
	p.mu.Unlock()
}
