package main

// Input generators. Every policy, edit and packet stream the benchmark
// feeds the system is built here from the run seed, using only the
// layers' public entry points (the parser, topo, traffic and pkt
// packages), so a refactor of the repository's own experiment harnesses
// cannot change what the benchmark measures.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/traffic"
	"snap/internal/values"
)

// csPort is the OBS port of the CS department subnet 10.0.6.0/24, the
// subnet the Figure 1 DNS-tunnel detector watches.
const csPort = 6

// aclBase is the first source port an edit's ACL fragment drops. Streams
// never emit a source port at or above it, so an edit changes compiled
// artifacts but never the deliveries of streamed traffic; probes that
// carry the port check that the edit took effect.
const aclBase = 60000

// assumptionSrc is the §4.3 operator assumption for n ports in surface
// syntax: traffic from subnet 10.0.i.0/24 enters at port i.
func assumptionSrc(n int) string {
	terms := make([]string, n)
	for i := 1; i <= n; i++ {
		terms[i-1] = fmt.Sprintf("srcip = 10.0.%d.0/24 & inport = %d", i, i)
	}
	return "(" + strings.Join(terms, " | ") + ")"
}

// egressSrc is the §2.1 assign-egress policy for n ports: packets to
// subnet 10.0.i.0/24 leave at port i, everything else is dropped.
func egressSrc(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "(if dstip = 10.0.%d.0/24 then outport <- %d else ", i, i)
	}
	b.WriteString("drop")
	b.WriteString(strings.Repeat(")", n))
	return b.String()
}

// dnsSrc is the Figure 1 DNS-tunnel detector with threshold 3.
const dnsSrc = `(if dstip = 10.0.6.0/24 & srcport = 53 then
  orphan[dstip][dns.rdata] <- True;
  susp-client[dstip]++;
  (if susp-client[dstip] = 3 then blacklist[dstip] <- True else id)
else
  (if srcip = 10.0.6.0/24 & orphan[srcip][dstip] then
    orphan[srcip][dstip] <- False;
    susp-client[srcip]--
  else id))`

// aclSrc is the single-fragment edit: a stateless drop of one source port.
func aclSrc(port int) string {
	return fmt.Sprintf("(if srcport = %d then drop else id)", port)
}

// dnsPolicySrc is the evaluation's DNS workload, assumption; (DNS-tunnel-
// detect; assign-egress), sized to n ports. acl > 0 inserts the ACL
// fragment for that source port before assign-egress.
func dnsPolicySrc(n, acl int) string {
	body := dnsSrc + ";\n"
	if acl > 0 {
		body += aclSrc(acl) + ";\n"
	}
	return assumptionSrc(n) + ";\n(" + body + egressSrc(n) + ")"
}

// counterInner lists the counter-policy rotation: both counters, the
// ingress counter gated on HTTP, the flow counter gated on DNS.
var counterInner = []string{
	"count[inport]++; flows[srcip]++",
	"(if dstport = 80 then count[inport]++ else id); flows[srcip]++",
	"count[inport]++; (if dstport = 53 then flows[srcip]++ else id)",
}

// counterPolicySrc is variant v of the counter rotation sized to n ports.
func counterPolicySrc(n, v int) string {
	return assumptionSrc(n) + ";\n(" + counterInner[v%len(counterInner)] + ";\n" + egressSrc(n) + ")"
}

// Flow-identity churn shared by both stream kinds: identities live in a
// bounded space, a window of live identities slides forward by one every
// churnEvery packets, and each packet picks a live identity with Zipf
// popularity favouring the newest. State tables therefore keep receiving
// fresh keys, and saturate at the identity space instead of growing with
// run length, so the retained heap does not depend on machine speed.
const (
	identSpace = 1 << 14
	liveWindow = 1024
	churnEvery = 8
	zipfAlpha  = 1.1
)

// stream is an endless seeded packet source. The same seed yields the
// same packets in the same order.
type stream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  uint64
	base uint32
	// next draws one packet for identity id.
	next func(s *stream, id uint32) dataplane.Ingress
	// pairs and cum sample demand-proportional port pairs (counter streams).
	pairs [][2]int
	cum   []float64
}

func newStream(seed int64, next func(*stream, uint32) dataplane.Ingress) *stream {
	rng := rand.New(rand.NewSource(seed))
	return &stream{rng: rng, zipf: rand.NewZipf(rng, zipfAlpha, 1, liveWindow-1), next: next}
}

func (s *stream) ident() uint32 {
	rank := uint32(s.zipf.Uint64())
	s.seq++
	if s.seq%churnEvery == 0 {
		s.base++
	}
	return (s.base + liveWindow - 1 - rank) % identSpace
}

// fill overwrites buf with the stream's next len(buf) packets.
func (s *stream) fill(buf []dataplane.Ingress) {
	for i := range buf {
		buf[i] = s.next(s, s.ident())
	}
}

// otherPort maps k onto the ports other than the CS port.
func otherPort(n int, k uint32) int {
	p := 1 + int(k%uint32(n-1))
	if p >= csPort {
		p++
	}
	return p
}

func ip(subnet int, host uint32) values.Value {
	return values.IPv4(10, 0, byte(subnet), byte(host))
}

// dnsStream is the DNS-tunnel workload over n ports: DNS responses into
// the CS subnet (which write orphan and susp-client, and blacklist at the
// threshold), follow-ups from CS clients to the resolved addresses (which
// read and clear orphan and decrement susp-client), and background
// traffic between the other subnets. An identity fixes the client, the
// resolver and the resolved peer, so a popular identity's follow-up finds
// the orphan entry its response wrote.
func dnsStream(seed int64, n int) *stream {
	return newStream(seed, func(s *stream, id uint32) dataplane.Ingress {
		client := ip(csPort, 1+id%250)
		peerNet := otherPort(n, id/3)
		peer := ip(peerNet, 1+(id/7)%250)
		sport := values.Int(int64(1024 + id%50000))
		switch x := s.rng.Float64(); {
		case x < 0.45:
			u := otherPort(n, id)
			return dataplane.Ingress{Port: u, Packet: pkt.New(map[pkt.Field]values.Value{
				pkt.Inport: values.Int(int64(u)), pkt.SrcIP: ip(u, 53), pkt.DstIP: client,
				pkt.SrcPort: values.Int(53), pkt.DstPort: sport, pkt.Proto: values.Int(17),
				pkt.DNSRData: peer,
			})}
		case x < 0.8:
			return dataplane.Ingress{Port: csPort, Packet: pkt.New(map[pkt.Field]values.Value{
				pkt.Inport: values.Int(csPort), pkt.SrcIP: client, pkt.DstIP: peer,
				pkt.SrcPort: sport, pkt.DstPort: values.Int(443), pkt.Proto: values.Int(6),
			})}
		default:
			u := 1 + s.rng.Intn(n)
			v := 1 + s.rng.Intn(n-1)
			if v >= u {
				v++
			}
			return dataplane.Ingress{Port: u, Packet: pkt.New(map[pkt.Field]values.Value{
				pkt.Inport: values.Int(int64(u)), pkt.SrcIP: ip(u, 1+id%250), pkt.DstIP: ip(v, 1+(id/5)%250),
				pkt.SrcPort: sport, pkt.DstPort: values.Int(80), pkt.Proto: values.Int(6),
			})}
		}
	})
}

// counterStream is the counter workload: demand-proportional port pairs
// drawn from m, with the identity fixing the source host (the flows[srcip]
// key) and the L4 ports the rotation's variants test.
func counterStream(seed int64, m traffic.Matrix) *stream {
	s := newStream(seed, func(s *stream, id uint32) dataplane.Ingress {
		j := sort.SearchFloat64s(s.cum, s.rng.Float64()*s.cum[len(s.cum)-1])
		if j >= len(s.pairs) {
			j = len(s.pairs) - 1
		}
		u, v := s.pairs[j][0], s.pairs[j][1]
		return dataplane.Ingress{Port: u, Packet: pkt.New(map[pkt.Field]values.Value{
			pkt.Inport: values.Int(int64(u)), pkt.SrcIP: ip(u, 1+id%254), pkt.DstIP: ip(v, 1),
			pkt.SrcPort: values.Int(int64(1024 + id%4096)), pkt.DstPort: values.Int([]int64{53, 80, 443}[id%3]),
		})}
	})
	var total float64
	for _, p := range m.Pairs() {
		if d := m[p]; d > 0 {
			total += d
			s.pairs = append(s.pairs, p)
			s.cum = append(s.cum, total)
		}
	}
	return s
}

// aclProbe is a packet the current ACL edit must drop.
func aclProbe(n, port int) dataplane.Ingress {
	u := otherPort(n, 0)
	return dataplane.Ingress{Port: u, Packet: pkt.New(map[pkt.Field]values.Value{
		pkt.Inport: values.Int(int64(u)), pkt.SrcIP: ip(u, 9), pkt.DstIP: ip(csPort, 9),
		pkt.SrcPort: values.Int(int64(port)), pkt.DstPort: values.Int(80),
	})}
}
