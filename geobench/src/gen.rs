//! What the DNS load generator sends and how it judges the answers: query
//! kinds and their wire bytes, the seeded arrival schedule, the 16-bit id
//! table, and the per-kind validator.
//!
//! Queries are encoded here, byte by byte, rather than through the codec
//! under test, so a codec change cannot change the inputs.

use crate::stats::{Rng, Zipf};

/// Source domains the generator presents itself as (`127.0.d.1`, which the
/// daemon's example topology maps to domain `d`).
pub const DOMAINS: usize = 4;

/// The name every address query asks for, in wire form.
const SITE: &[u8] = b"\x03www\x07example\x03org\x00";
/// The zone suffix NXDOMAIN names are built under.
const ZONE: &[u8] = b"\x07example\x03org\x00";
/// The advertised EDNS0 UDP payload size: the default DNS Flag Day 2020
/// recommended to resolver and server implementations.
const EDNS_UDP_SIZE: u16 = 1232;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `IN A www.example.org`, no additional records.
    Plain,
    /// The same question with an EDNS0 OPT record (ARCOUNT 1).
    Edns,
    /// An `IN A` question for a name inside the zone that does not exist.
    NxDomain,
    /// Fewer than 12 bytes: no header, so no answer is possible.
    Runt,
}

impl Kind {
    /// Whether the daemon owes this query an answer.
    pub fn answered(self) -> bool {
        self != Kind::Runt
    }
}

/// A query mix as cumulative shares of plain, EDNS and NXDOMAIN queries;
/// the rest are runts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    plain: f64,
    edns: f64,
    nxdomain: f64,
}

impl Mix {
    /// Every query plain: the traffic of a 1998-era resolver.
    pub const PLAIN: Mix = Mix { plain: 1.0, edns: 0.0, nxdomain: 0.0 };
    /// An assumed mix for traffic from today's recursive resolvers, not a
    /// measured one: 90% EDNS0, 5% plain, 4% NXDOMAIN names inside the
    /// zone, 1% runts. No traffic study backs these shares.
    pub const RESOLVER: Mix = Mix { plain: 0.05, edns: 0.90, nxdomain: 0.04 };

    pub fn draw(&self, rng: &mut Rng) -> Kind {
        let u = rng.unit();
        if u < self.plain {
            Kind::Plain
        } else if u < self.plain + self.edns {
            Kind::Edns
        } else if u < self.plain + self.edns + self.nxdomain {
            Kind::NxDomain
        } else {
            Kind::Runt
        }
    }
}

/// One query to send: its source domain, kind, and `variant` (which
/// nonexistent name an NXDOMAIN query asks for, or a runt's length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    pub domain: u8,
    pub kind: Kind,
    pub variant: u32,
}

/// Draws queries: source domains from a Zipf law (exponent 1.0, the
/// paper's client basis), kinds from the mix.
#[derive(Debug, Clone)]
pub struct Draw {
    rng: Rng,
    zipf: Zipf,
    mix: Mix,
}

impl Draw {
    pub fn new(seed: u64, stream: u64, mix: Mix) -> Self {
        Draw { rng: Rng::new(seed, stream), zipf: Zipf::new(DOMAINS, 1.0), mix }
    }

    pub fn next(&mut self) -> Query {
        let domain = self.zipf.sample(&mut self.rng) as u8;
        let kind = self.mix.draw(&mut self.rng);
        let variant = self.rng.next_u64() as u32;
        Query { domain, kind, variant }
    }
}

/// An open-loop Poisson schedule: `(due time in ns from the step start,
/// query)` at `rate` queries/s until `duration_ns`.
#[derive(Debug, Clone)]
pub struct Schedule {
    draw: Draw,
    gaps: Rng,
    mean_gap_ns: f64,
    t_ns: f64,
    duration_ns: u64,
}

impl Schedule {
    pub fn new(seed: u64, stream: u64, mix: Mix, rate: f64, duration_ns: u64) -> Self {
        Schedule {
            draw: Draw::new(seed, stream, mix),
            gaps: Rng::new(seed, stream ^ 0x6761_7073),
            mean_gap_ns: 1e9 / rate,
            t_ns: 0.0,
            duration_ns,
        }
    }
}

impl Iterator for Schedule {
    type Item = (u64, Query);

    fn next(&mut self) -> Option<(u64, Query)> {
        self.t_ns += self.gaps.exp(self.mean_gap_ns);
        let due = self.t_ns as u64;
        (due < self.duration_ns).then(|| (due, self.draw.next()))
    }
}

/// The query's question section (name, QTYPE A, QCLASS IN) in a stack
/// buffer, and its length: the validator builds one per answer, so it
/// must not allocate.
fn question(q: &Query) -> ([u8; 32], usize) {
    let mut buf = [0u8; 32];
    let mut len = 0;
    let mut put = |bytes: &[u8]| {
        buf[len..len + bytes.len()].copy_from_slice(bytes);
        len += bytes.len();
    };
    if q.kind == Kind::NxDomain {
        // One 9-byte label, `h` and eight hex digits, under the zone.
        let mut label = *b"\x09h00000000";
        for (i, digit) in label[2..].iter_mut().enumerate() {
            *digit = b"0123456789abcdef"[(q.variant >> (28 - 4 * i)) as usize & 0xF];
        }
        put(&label);
        put(ZONE);
    } else {
        put(SITE);
    }
    put(&[0, 1, 0, 1]);
    (buf, len)
}

/// Encodes `q` with transaction id `id` into `out` (cleared first).
pub fn encode(q: &Query, id: u16, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&id.to_be_bytes());
    if q.kind == Kind::Runt {
        // 2..=11 bytes: an id and part of a header, never a full one.
        out.resize(2 + (q.variant % 10) as usize, 0);
        return;
    }
    let arcount: u16 = if q.kind == Kind::Edns { 1 } else { 0 };
    out.extend_from_slice(&[0x01, 0x00, 0, 1, 0, 0, 0, 0]); // RD; QD 1, AN 0, NS 0
    out.extend_from_slice(&arcount.to_be_bytes());
    let (question, len) = question(q);
    out.extend_from_slice(&question[..len]);
    if q.kind == Kind::Edns {
        // OPT: root owner, TYPE 41, CLASS = UDP size, TTL 0, RDLEN 0.
        out.push(0);
        out.extend_from_slice(&41u16.to_be_bytes());
        out.extend_from_slice(&EDNS_UDP_SIZE.to_be_bytes());
        out.extend_from_slice(&[0, 0, 0, 0, 0, 0]);
    }
}

/// Whether a query's bytes meet every precondition of the daemon's
/// allocation-free fast path as its docs state them: QR clear, opcode 0,
/// exactly one question and no other records, an uncompressed name equal
/// to the site's, `IN A`, nothing after the question.
pub fn fast_path_eligible(query: &[u8]) -> bool {
    query.len() == 12 + SITE.len() + 4
        && u16::from_be_bytes([query[2], query[3]]) & 0xF800 == 0
        && query[4..12] == [0, 1, 0, 0, 0, 0, 0, 0]
        && query[12..12 + SITE.len()].eq_ignore_ascii_case(SITE)
        && query[12 + SITE.len()..] == [0, 1, 0, 1]
}

/// The web servers' addresses in the daemon's example topology:
/// 192.0.2.10 up to 192.0.2.16.
pub const SERVERS: usize = 7;

/// Judges one response against the query it answers. `Ok(Some(server))`
/// for a valid address answer (the server's index), `Ok(None)` for a valid
/// NXDOMAIN.
///
/// Accepted: the id echoed, QR and AA set, opcode 0, the question echoed
/// byte for byte, then for address queries NOERROR with one `IN A` answer
/// (owner uncompressed or pointing at the question), TTL ≥ 1 and an
/// address in 192.0.2.10–16; for NXDOMAIN queries rcode 3 and no answer.
/// Nothing else may follow, except one OPT record (an EDNS answer may
/// carry one or not). A runt deserves no answer at all.
pub fn validate(q: &Query, id: u16, resp: &[u8]) -> Result<Option<usize>, &'static str> {
    if q.kind == Kind::Runt {
        return Err("answer to a runt");
    }
    if resp.len() < 12 || resp[0..2] != id.to_be_bytes() {
        return Err("short or wrong id");
    }
    let (flags, rcode) = (resp[2], resp[3] & 0x0F);
    if flags & 0x80 == 0 || flags & 0x78 != 0 || flags & 0x04 == 0 {
        return Err("not an authoritative QUERY response");
    }
    let count = |i: usize| u16::from_be_bytes([resp[4 + 2 * i], resp[5 + 2 * i]]);
    let (qd, an, ns, ar) = (count(0), count(1), count(2), count(3));
    let (question, len) = question(q);
    let end_q = 12 + len;
    if qd != 1 || resp.get(12..end_q) != Some(&question[..len]) {
        return Err("question not echoed");
    }
    let expect_answer = q.kind != Kind::NxDomain;
    let want_rcode = if expect_answer { 0 } else { 3 };
    if rcode != want_rcode || ns != 0 || an != u16::from(expect_answer) || ar > 1 {
        return Err("rcode or section counts do not fit the query kind");
    }
    let mut at = end_q;
    let mut server = None;
    if expect_answer {
        let name_len = match resp.get(at) {
            Some(&b) if b & 0xC0 == 0xC0 => {
                if resp.get(at..at + 2) != Some(&[0xC0, 12][..]) {
                    return Err("answer owner points elsewhere");
                }
                2
            }
            _ if resp.get(at..at + SITE.len()).is_some_and(|n| n.eq_ignore_ascii_case(SITE)) => {
                SITE.len()
            }
            _ => return Err("answer owner is not the site"),
        };
        at += name_len;
        let Some(rr) = resp.get(at..at + 14) else { return Err("answer truncated") };
        let ttl = u32::from_be_bytes([rr[4], rr[5], rr[6], rr[7]]);
        if rr[0..4] != [0, 1, 0, 1] || rr[8..10] != [0, 4] || ttl == 0 {
            return Err("answer is not IN A with a TTL of at least 1 s");
        }
        if rr[10..13] != [192, 0, 2] || !(10..10 + SERVERS as u8).contains(&rr[13]) {
            return Err("address outside 192.0.2.10-16");
        }
        server = Some(usize::from(rr[13] - 10));
        at += 14;
    }
    if ar == 1 {
        // OPT: root owner, TYPE 41, then CLASS, TTL, RDLEN and RDATA.
        let Some(opt) = resp.get(at..at + 11) else { return Err("additional truncated") };
        let rdlen = usize::from(u16::from_be_bytes([opt[9], opt[10]]));
        if opt[0] != 0 || opt[1..3] != [0, 41] {
            return Err("additional record is not OPT");
        }
        at += 11 + rdlen;
    }
    if resp.len() != at {
        return Err("trailing bytes");
    }
    Ok(server)
}

/// The in-flight queries of one source socket, indexed by 16-bit DNS id.
/// Each slot holds the index of the query that owns the id (plus one; 0 is
/// free). Ids are handed out in order, so an id comes back into use only
/// after 65536 later queries on the same socket.
#[derive(Debug)]
pub struct Pending {
    slots: Vec<u32>,
    next_id: u16,
}

impl Pending {
    pub fn new() -> Self {
        Pending { slots: vec![0; 1 << 16], next_id: 0 }
    }

    /// Takes the next id for query `index`. If that id's previous owner is
    /// still unanswered it is returned: it counts as lost, since a late
    /// answer to it can no longer be told apart from one to `index`.
    pub fn issue(&mut self, index: u32) -> (u16, Option<u32>) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let slot = &mut self.slots[usize::from(id)];
        let displaced = (*slot != 0).then(|| *slot - 1);
        *slot = index + 1;
        (id, displaced)
    }

    /// The query that owns `id`, releasing the id; `None` when nothing
    /// waits on it (a duplicate or stray answer).
    pub fn complete(&mut self, id: u16) -> Option<u32> {
        let slot = &mut self.slots[usize::from(id)];
        let owner = (*slot != 0).then(|| *slot - 1);
        *slot = 0;
        owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let take =
            |seed| Schedule::new(seed, 1, Mix::RESOLVER, 150_000.0, 50_000_000).collect::<Vec<_>>();
        let (a, b) = (take(1998), take(1998));
        assert!(a.len() > 5_000, "about 7.5k queries in 50 ms at 150k/s");
        assert_eq!(a, b);
        assert_ne!(a, take(1999));
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "due times ascend");
        let kinds = |k| a.iter().filter(|(_, q)| q.kind == k).count() as f64 / a.len() as f64;
        assert!((kinds(Kind::Edns) - 0.90).abs() < 0.02);
        assert!((kinds(Kind::Runt) - 0.01).abs() < 0.005);
        let d0 = a.iter().filter(|(_, q)| q.domain == 0).count() as f64 / a.len() as f64;
        assert!((d0 - 0.48).abs() < 0.02, "domain 0 carries 1/H_4 of the queries");
    }

    #[test]
    fn reused_id_counts_the_old_query_lost() {
        let mut p = Pending::new();
        let (id0, none) = p.issue(0);
        assert_eq!(none, None);
        for i in 1..(1 << 16) {
            p.issue(i);
        }
        // Query 65536 takes query 0's id while 0 is unanswered: 0 is lost,
        // and the answer carrying that id now belongs to 65536.
        let (id, displaced) = p.issue(1 << 16);
        assert_eq!((id, displaced), (id0, Some(0)));
        assert_eq!(p.complete(id), Some(1 << 16));
        assert_eq!(p.complete(id), None, "a second answer is a stray");
    }

    /// A well-formed response to `q`, as an authoritative server would
    /// write it: header, echoed question, then the answer if any.
    fn respond(q: &Query, id: u16, rcode: u8, answer: Option<([u8; 4], u32)>) -> Vec<u8> {
        let mut r = id.to_be_bytes().to_vec();
        let an = u8::from(answer.is_some());
        r.extend_from_slice(&[0x85, rcode, 0, 1, 0, an, 0, 0, 0, 0]);
        let (question, len) = question(q);
        r.extend_from_slice(&question[..len]);
        if let Some((addr, ttl)) = answer {
            r.extend_from_slice(SITE);
            r.extend_from_slice(&[0, 1, 0, 1]);
            r.extend_from_slice(&ttl.to_be_bytes());
            r.extend_from_slice(&[0, 4]);
            r.extend_from_slice(&addr);
        }
        r
    }

    #[test]
    fn validator_table() {
        let plain = Query { domain: 0, kind: Kind::Plain, variant: 0 };
        let edns = Query { kind: Kind::Edns, ..plain };
        let nx = Query { kind: Kind::NxDomain, variant: 7, ..plain };
        let runt = Query { kind: Kind::Runt, variant: 3, ..plain };
        let good = respond(&plain, 9, 0, Some(([192, 0, 2, 12], 30)));
        assert_eq!(validate(&plain, 9, &good), Ok(Some(2)));
        assert!(validate(&plain, 8, &good).is_err(), "wrong id");
        // An EDNS query answered without an OPT record is accepted, and
        // with one too.
        assert_eq!(validate(&edns, 9, &good), Ok(Some(2)));
        let mut with_opt = good.clone();
        with_opt[11] = 1;
        with_opt.extend_from_slice(&[0, 0, 41, 4, 208, 0, 0, 0, 0, 0, 0]);
        assert_eq!(validate(&edns, 9, &with_opt), Ok(Some(2)));
        // TTL 0 and addresses outside the farm are rejected.
        assert!(validate(&plain, 9, &respond(&plain, 9, 0, Some(([192, 0, 2, 12], 0)))).is_err());
        assert!(validate(&plain, 9, &respond(&plain, 9, 0, Some(([192, 0, 2, 17], 9)))).is_err());
        // NXDOMAIN must carry AA and no answer; NOERROR does not fit it.
        let mut bytes = Vec::new();
        encode(&Query { variant: 0xdead_beef, ..nx }, 4, &mut bytes);
        assert_eq!(bytes[12..22], *b"\x09hdeadbeef", "one label, h and 8 hex digits");
        let nxr = respond(&nx, 4, 3, None);
        assert_eq!(validate(&nx, 4, &nxr), Ok(None));
        let mut no_aa = nxr.clone();
        no_aa[2] &= !0x04;
        assert!(validate(&nx, 4, &no_aa).is_err());
        assert!(validate(&nx, 4, &respond(&nx, 4, 0, None)).is_err());
        assert!(validate(&plain, 4, &respond(&plain, 4, 3, None)).is_err());
        // A runt gets no answer: any response to one is invalid.
        assert!(validate(&runt, 9, &good).is_err());
        encode(&runt, 9, &mut bytes);
        assert!(bytes.len() < 12);
    }

    #[test]
    fn only_plain_queries_are_fast_path_eligible() {
        let mut bytes = Vec::new();
        for (kind, eligible) in
            [(Kind::Plain, true), (Kind::Edns, false), (Kind::NxDomain, false), (Kind::Runt, false)]
        {
            encode(&Query { domain: 1, kind, variant: 5 }, 77, &mut bytes);
            assert_eq!(fast_path_eligible(&bytes), eligible, "{kind:?}");
        }
    }
}
