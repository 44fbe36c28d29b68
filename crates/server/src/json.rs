//! Minimal JSON value, parser, and writer for the line protocol.
//!
//! The build environment is offline (no serde), so the protocol layer carries
//! its own implementation of exactly the subset it needs: UTF-8 text, the six
//! JSON value kinds, `\uXXXX` escapes (BMP only — surrogate pairs are decoded
//! pairwise), and `f64` numbers. Object member order is preserved, which keeps
//! response envelopes stable for golden-line tests.
//!
//! Number contract: a finite `f64` is written as the shortest decimal that
//! reads back to the same bits, byte for byte the text of Rust's `{}` (never
//! an exponent, `-0` for negative zero); NaN and the infinities become
//! `null`. A numeral is decoded to exactly the bits `str::parse::<f64>`
//! gives, and the same numerals are accepted and refused as when that was
//! the whole number parser. So coordinates cross the wire bit for bit.
//!
//! Strings are parsed and written in time linear in their length: the runs
//! between escapes are copied as slices.
//!
//! Numbers are the bulk of every request, so in the common case they go
//! through neither `core::fmt` nor `str::parse`. The writer finds the
//! shortest digits with Ryu's digit-removal loop (Adams, PLDI 2018) over
//! exact `u128` products. The parser reads numerals of up to 19 digits and
//! converts them exactly: Clinger's fast path, or a candidate checked
//! against its rounding interval in `u128`. Both fall back to the standard
//! library where the integers would not fit.

#![forbid(unsafe_code)]

use std::cmp::Ordering;
use std::io::Write as _;

/// A parsed JSON value. Objects keep insertion order (`Vec` of pairs, not a
/// map): protocol envelopes are small and order-stable output matters more
/// than lookup speed.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numbers that are exact non-negative integers, for ids and counts.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a single line (no trailing newline, no pretty-printing).
    pub fn to_line(&self) -> String {
        let mut out = Vec::new();
        write_value(&mut out, self);
        String::from_utf8(out).expect("the writer copies UTF-8 and adds ASCII")
    }
}

/// Convenience builder for object values.
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::Num(n) => write_num(out, *n),
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_value(out, item);
            }
            out.push(b']');
        }
        Value::Obj(members) => {
            out.push(b'{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_str(out, k);
                out.push(b':');
                write_value(out, item);
            }
            out.push(b'}');
        }
    }
}

/// `"00" "01" … "99"`: two digits per division by 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Enough zeros for the padding of any value [`shortest`] handles.
const ZEROS: &[u8] = b"0000000000000000000000000000000000000000";

/// Writes a finite `n` as Rust's `{}` does; see the module docs.
fn write_num(out: &mut Vec<u8>, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/inf; the protocol never emits them, but fail soft.
        out.extend_from_slice(b"null");
        return;
    }
    if n.is_sign_negative() {
        out.push(b'-');
    }
    let a = n.abs();
    let mut buf = [0u8; 20];
    if a < 2f64.powi(53) && a as u64 as f64 == a {
        // Labels, ids and counts: every integer below 2^53 is its own
        // shortest round-trip text.
        out.extend_from_slice(digits(&mut buf, a as u64));
        return;
    }
    let Some((mant, exp)) = shortest(a) else {
        // Writing to a `Vec` cannot fail.
        let _ = write!(out, "{a}");
        return;
    };
    // `{}` never uses an exponent: pad with zeros or place the point.
    let ds = digits(&mut buf, mant);
    let point = ds.len() as i32 + exp;
    if exp >= 0 {
        out.extend_from_slice(ds);
        out.extend_from_slice(&ZEROS[..exp as usize]);
    } else if point > 0 {
        let (int, frac) = ds.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(b"0.");
        out.extend_from_slice(&ZEROS[..(-point) as usize]);
        out.extend_from_slice(ds);
    }
}

/// Renders `v` in decimal at the end of `buf`, two digits at a time.
fn digits(buf: &mut [u8; 20], mut v: u64) -> &[u8] {
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    &buf[at..]
}

/// `5^j` for `j < 32`, the powers whose product with a number under 2^55
/// fits in a `u128` (`5^31 < 2^72`); computed at compile time.
const POW5: [u128; 32] = {
    let mut pows = [1u128; 32];
    let mut j = 1;
    while j < 32 {
        pows[j] = pows[j - 1] * 5;
        j += 1;
    }
    pows
};

/// The shortest decimal `mant × 10^exp` that reads back as `v` (finite and
/// positive), the closest one to `v` where several are as short, and the
/// upper one of two as close: the digits `{}` prints. This is Ryu's
/// digit-removal loop, started from exact products instead of Ryu's tables
/// of rounded 128-bit powers of five. `v`, its lower and its upper rounding bound are `4m`,
/// `4m − 1 − s` and `4m + 2` times `2^e`; scaled by `10^j` they are
/// `(4m ± …)·5^j >> q` with `q = j − e`. Ryu picks `j` so that the interval
/// spans at least 30 units (`j = 1`: the value is exact), so the loop
/// removes at least one digit and `last` decides the rounding. `None` when
/// those products do not fit in a `u128`: below about 1e-15, and at `2^54`
/// and up, where the quotient would need a division.
fn shortest(v: f64) -> Option<(u64, i32)> {
    let bits = v.to_bits();
    let frac = bits & ((1 << 52) - 1);
    let biased = (bits >> 52) as i32;
    let (m2, e2) = if biased == 0 {
        (frac, -1076)
    } else {
        (frac | 1 << 52, biased - 1077)
    };
    if e2 >= 0 {
        return None;
    }
    let t = (-e2) as u32;
    // floor(t · log10 5), less one when t > 1 (Ryu's `log10Pow5`).
    let q = ((t * 732_923) >> 20) - u32::from(t > 1);
    let j = t - q;
    // Every multiplier below is under 2^55.
    let pow5 = *POW5.get(j as usize)?;
    let scaled = |x: u64| {
        let p = u128::from(x) * pow5;
        ((p >> q) as u64, p & ((1u128 << q) - 1) == 0)
    };
    let even = m2 & 1 == 0;
    let mv = 4 * m2;
    let lower_gap = 1 + u64::from(frac != 0 || biased <= 1);
    let (mut vr, _) = scaled(mv);
    let (mut vp, vp_exact) = scaled(mv + 2);
    let (mut vm, vm_exact) = scaled(mv - lower_gap);
    // A bound that is itself a decimal is a candidate only when the
    // mantissa is even, as the reader rounds ties to even.
    if vp_exact && !even {
        vp -= 1;
    }
    // Whether `vm` is a candidate: exact, accepted and, so far, only zeros
    // removed from it.
    let mut vm_ok = vm_exact && even;
    let mut last = 0;
    let mut removed = 0;
    while vp / 10 > vm / 10 {
        vm_ok &= vm % 10 == 0;
        last = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    // A candidate lower bound ending in zeros allows still fewer digits.
    while vm_ok && vm % 10 == 0 {
        last = vr % 10;
        vr /= 10;
        vm /= 10;
        removed += 1;
    }
    // Exactly halfway rounds up, as `{}` does (Ryu rounds to even).
    let mant = vr + u64::from((vr == vm && !vm_ok) || last >= 5);
    Some((mant, q as i32 + e2 + removed))
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.extend_from_slice(esc);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Parses one JSON document; trailing non-whitespace is an error (the line
/// protocol carries exactly one value per line).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
        items: Vec::new(),
        members: Vec::new(),
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Hostile inputs like `[[[[…` would otherwise recurse once per byte and
/// overflow the parser's stack; every protocol shape nests ≤ 3 deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Elements of the arrays being parsed, innermost last: each array
    /// takes its own off the top when it closes, so its `Vec` is allocated
    /// once, at its final size.
    items: Vec<Value>,
    /// The same for object members.
    members: Vec<(String, Value)>,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, f: fn(&mut Parser<'a>) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// A numeral is the longest run of `0-9 - + . e E`. A JSON-shaped
    /// numeral is converted as it is read; anything else, or a numeral
    /// [`decimal_to_f64`] declines, goes to `str::parse`, which also decides
    /// what is refused.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if let Some((v, end)) = json_numeral(self.bytes, start) {
            if !self.bytes.get(end).copied().is_some_and(is_numeral_byte) {
                self.pos = end;
                return Ok(Value::Num(v));
            }
        }
        while self.peek().is_some_and(is_numeral_byte) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one piece; all are ASCII, so the run ends on a char
            // boundary.
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b) if b < 0x20 => {
                    return Err(format!(
                        "unescaped control character U+{b:04X} at byte {}",
                        self.pos
                    ));
                }
                _ => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).ok_or("bad unicode escape")?);
                        }
                        b => {
                            return Err(format!("bad escape {:?}", b as char));
                        }
                    }
                }
            }
        }
    }

    /// Exactly four ASCII hex digits (no sign, unlike `from_str_radix`).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut v = 0;
        for &b in digits {
            v = v * 16 + (b as char).to_digit(16).ok_or("bad \\u escape")?;
        }
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let base = self.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(Vec::new()));
        }
        loop {
            self.skip_ws();
            let v = self.value()?;
            self.items.push(v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(self.items.drain(base..).collect()));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let base = self.members.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(Vec::new()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            self.members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(self.members.drain(base..).collect()));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn is_numeral_byte(b: u8) -> bool {
    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
}

/// Reads `-? d+ (. d+)? ([eE] [+-]? d+)?` at `bytes[at..]`; returns its
/// value and end if it has at most 19 digits and converts exactly.
fn json_numeral(bytes: &[u8], mut at: usize) -> Option<(f64, usize)> {
    let digit = |at: usize| {
        let d = bytes.get(at)?.wrapping_sub(b'0');
        (d < 10).then_some(u64::from(d))
    };
    let neg = bytes.get(at) == Some(&b'-');
    at += usize::from(neg);
    let mant_start = at;
    // Wraps only past 19 digits, which are refused below.
    let mut mant = 0u64;
    let mut take_digits = |at: &mut usize| {
        while let Some(d) = digit(*at) {
            mant = mant.wrapping_mul(10).wrapping_add(d);
            *at += 1;
        }
    };
    take_digits(&mut at);
    let mut ndigits = at - mant_start;
    if ndigits == 0 {
        return None;
    }
    let mut exp = 0i32;
    if bytes.get(at) == Some(&b'.') {
        at += 1;
        let frac_start = at;
        take_digits(&mut at);
        let nfrac = at - frac_start;
        if nfrac == 0 {
            return None;
        }
        ndigits += nfrac;
        exp = -i32::try_from(nfrac).ok()?;
    }
    // Leading zeros count too: such numerals are rare, and `str::parse`
    // takes them.
    if ndigits > 19 {
        return None;
    }
    if matches!(bytes.get(at), Some(b'e' | b'E')) {
        at += 1;
        let exp_neg = bytes.get(at) == Some(&b'-');
        if matches!(bytes.get(at), Some(b'-' | b'+')) {
            at += 1;
        }
        let exp_start = at;
        let mut e = 0i32;
        while let Some(d) = digit(at) {
            // Far past any exponent that converts here; no overflow.
            e = (e * 10 + d as i32).min(1 << 20);
            at += 1;
        }
        if at == exp_start {
            return None;
        }
        exp = exp.checked_add(if exp_neg { -e } else { e })?;
    }
    let v = decimal_to_f64(mant, exp)?;
    Some((if neg { -v } else { v }, at))
}

/// `10^k` for the `k` an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `mant × 10^exp` rounded to the nearest `f64`, ties to even, or `None`
/// where this cannot prove it and `str::parse` must decide.
fn decimal_to_f64(mant: u64, exp: i32) -> Option<f64> {
    if mant == 0 {
        return Some(0.0);
    }
    let pow = *POW10.get(exp.unsigned_abs() as usize)?;
    let approx = if exp < 0 {
        mant as f64 / pow
    } else {
        mant as f64 * pow
    };
    if mant <= 1 << 53 {
        // Clinger's fast path: both operands are exact, so the one
        // rounding of the division or product is the right one.
        return Some(approx);
    }
    // The mantissa was rounded too, so `approx` may be one step off: check
    // it against its rounding interval and step towards the value.
    let dec = Decimal {
        mant: u128::from(mant),
        pow: 10u128.pow(exp.unsigned_abs()),
        neg_exp: exp < 0,
    };
    let mut c = approx;
    for _ in 0..3 {
        let step = match dec.rounding_side(c)? {
            Ordering::Equal => return Some(c),
            Ordering::Less => -1i64,
            Ordering::Greater => 1,
        };
        c = f64::from_bits(c.to_bits().checked_add_signed(step)?);
    }
    None
}

/// `mant × pow` or `mant / pow`, with `pow` a power of ten.
struct Decimal {
    mant: u128,
    pow: u128,
    neg_exp: bool,
}

impl Decimal {
    /// Where the decimal lies against the rounding interval of the positive
    /// normal `c`: `Equal` when it rounds to `c` (ties to even), `Less` below
    /// it, `Greater` above it. `None` for a subnormal or infinite `c`, or when
    /// the exact comparison does not fit in a `u128`.
    fn rounding_side(&self, c: f64) -> Option<Ordering> {
        let bits = c.to_bits();
        let biased = (bits >> 52) as i32;
        if biased == 0 || biased == 0x7ff {
            return None;
        }
        let m = bits & ((1 << 52) - 1) | 1 << 52;
        let e = biased - 1075;
        let even = m & 1 == 0;
        // The midpoint above `c = m·2^e`.
        match self.cmp_binary(2 * m + 1, e - 1)? {
            Ordering::Greater => return Some(Ordering::Greater),
            Ordering::Equal if !even => return Some(Ordering::Greater),
            _ => {}
        }
        // The midpoint below; just above a power of two the gap below is half
        // as wide, and the neighbour there has an odd mantissa.
        let (k, s) = if m == 1 << 52 && biased > 1 {
            (4 * m - 1, e - 2)
        } else {
            (2 * m - 1, e - 1)
        };
        match self.cmp_binary(k, s)? {
            Ordering::Less => Some(Ordering::Less),
            Ordering::Equal if !even => Some(Ordering::Less),
            _ => Some(Ordering::Equal),
        }
    }

    /// Compares the decimal with `k × 2^s` exactly; `None` if either side
    /// overflows a `u128`.
    fn cmp_binary(&self, k: u64, s: i32) -> Option<Ordering> {
        let (mut a, mut b) = (self.mant, u128::from(k));
        if self.neg_exp {
            b = b.checked_mul(self.pow)?;
        } else {
            a = a.checked_mul(self.pow)?;
        }
        let shifted = if s >= 0 { &mut b } else { &mut a };
        let shift = s.unsigned_abs();
        if shifted.leading_zeros() < shift {
            return None;
        }
        *shifted <<= shift;
        Some(a.cmp(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        let line = r#"{"verb":"submit","eps":1.5,"min_pts":4,"points":[[0,0],[1.25,-3e2]],"tag":"a\"b\\c","flag":true,"none":null}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("verb").unwrap().as_str(), Some("submit"));
        assert_eq!(v.get("eps").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("min_pts").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("tag").unwrap().as_str(), Some("a\"b\\c"));
        let pts = v.get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts[1].as_arr().unwrap()[1].as_f64(), Some(-300.0));
        // Writer output reparses to the same value.
        assert_eq!(parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""Aé 😀 \n\t""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé 😀 \n\t"));
        let back = parse(&v.to_line()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{\"a\":1} extra",
            "{'single':1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_is_bounded_not_stack_overflowing() {
        // Well past any protocol shape, far under the thread stack.
        let hostile = "[".repeat(100_000);
        let err = parse(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper"), "got {err:?}");
        let mixed = "{\"a\":".repeat(50_000) + "1" + &"}".repeat(50_000);
        assert!(parse(&mixed).is_err());
        // Legitimate nesting (points arrays are 2 deep) still parses.
        let mut ok = String::new();
        for _ in 0..100 {
            ok.push('[');
        }
        ok.push('1');
        for _ in 0..100 {
            ok.push(']');
        }
        assert!(parse(&ok).is_ok(), "depth 100 must stay legal");
    }

    #[test]
    fn integers_render_without_exponents() {
        assert_eq!(Value::Num(12345.0).to_line(), "12345");
        assert_eq!(Value::Num(-2.0).to_line(), "-2");
        assert_eq!(Value::Num(0.5).to_line(), "0.5");
    }

    /// SplitMix64, for the seeded property tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The property tests' seed; every failure message prints it.
    const SEED: u64 = 0x6a73_6f6e_6e75_6d73;

    /// `write_num` is `{}`, and its text reads back to the same bits.
    fn check_write(v: f64) {
        let out = Value::Num(v).to_line();
        if !v.is_finite() {
            assert_eq!(out, "null", "seed {SEED:#x}: bits {:#018x}", v.to_bits());
            return;
        }
        assert_eq!(
            out,
            format!("{v}"),
            "seed {SEED:#x}: bits {:#018x}",
            v.to_bits()
        );
        let back = parse(&out).ok().and_then(|b| b.as_f64());
        assert_eq!(
            back.map(f64::to_bits),
            Some(v.to_bits()),
            "seed {SEED:#x}: {out} did not read back"
        );
    }

    #[test]
    fn writer_matches_display_and_round_trips() {
        let mut rng = Rng(SEED);
        let mut checked = 0;
        let mut check = |v: f64| {
            check_write(v);
            check_write(-v);
            checked += 2;
        };
        for i in 0..120_000 {
            if i % 4 == 0 {
                // Any bit pattern: NaN and the infinities included. Most
                // print hundreds of digits, so they are the slow ones.
                check(f64::from_bits(rng.next()));
                // Subnormals.
                check(f64::from_bits(rng.next() >> 12));
            }
            // SS-domain coordinates, at full precision and rounded.
            let ss = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e5;
            check(ss);
            check((ss * 100.0).round() / 100.0);
            // [2^49, 2^54): few fraction bits, so many exact ties.
            check(f64::from_bits(
                (1072 + rng.below(5)) << 52 | rng.next() >> 12,
            ));
            // Near 2^53, where the integer branch ends.
            check(2f64.powi(53) + (rng.below(2_000) as f64 - 1_000.0));
        }
        for e in -1074..=1023i32 {
            let p = if e < -1022 {
                f64::from_bits(1 << (e + 1074))
            } else {
                f64::from_bits(((e + 1023) as u64) << 52)
            };
            for v in [
                p,
                f64::from_bits(p.to_bits() + 1),
                f64::from_bits(p.to_bits() - 1),
            ] {
                check(v);
            }
        }
        for v in [
            0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            1e-300,
            1e300,
            0.1,
            1e23,
        ] {
            check(v);
        }
        assert!(checked >= 1_000_000, "only {checked} values checked");
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        assert_eq!(Value::Num(-0.0).to_line(), "-0");
        assert_eq!(Value::Num(0.0).to_line(), "0");
        let back = parse("-0").unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    /// A random decimal numeral: up to 25 significant digits, a point at a
    /// random place or none, an exponent or none.
    fn random_numeral(rng: &mut Rng) -> String {
        let mut s = String::new();
        if rng.below(2) == 0 {
            s.push('-');
        }
        let len = if rng.below(4) == 0 {
            20 + rng.below(6)
        } else {
            1 + rng.below(19)
        } as usize;
        let point = rng.below(len as u64 + 1) as usize;
        for i in 0..len {
            if i == point && i > 0 {
                s.push('.');
            }
            s.push((b'0' + rng.below(10) as u8) as char);
        }
        match rng.below(4) {
            0 => {}
            1 => s += &format!("e{}", rng.below(61) as i64 - 30),
            2 => s += &format!("E+{}", rng.below(30)),
            _ => s += &format!("e{}", rng.below(701) as i64 - 350),
        }
        s
    }

    #[test]
    fn parser_matches_str_parse_bit_for_bit() {
        let mut rng = Rng(SEED);
        for _ in 0..1_000_000 {
            let s = random_numeral(&mut rng);
            let want = s
                .parse::<f64>()
                .expect("the generator makes valid numerals");
            let got = parse(&s).ok().and_then(|v| v.as_f64());
            assert_eq!(
                got.map(f64::to_bits),
                Some(want.to_bits()),
                "seed {SEED:#x}: {s:?}"
            );
        }
    }

    #[test]
    fn numeral_corpus_pins_acceptance_and_error_texts() {
        for (text, want) in [
            ("01", Ok(1.0)),
            ("1.", Ok(1.0)),
            ("-.5", Ok(-0.5)),
            ("1e400", Ok(f64::INFINITY)),
            ("-1e400", Ok(f64::NEG_INFINITY)),
            ("1E+2", Ok(100.0)),
            ("0e99999999999", Ok(0.0)),
            ("1e", Err("bad number \"1e\" at byte 0")),
            ("-", Err("bad number \"-\" at byte 0")),
            ("1.2.3", Err("bad number \"1.2.3\" at byte 0")),
            ("1-2", Err("bad number \"1-2\" at byte 0")),
            ("--1", Err("bad number \"--1\" at byte 0")),
            ("+1", Err("unexpected byte '+' at 0")),
            (".5", Err("unexpected byte '.' at 0")),
        ] {
            let got = parse(text).map(|v| v.as_f64().unwrap());
            assert_eq!(got, want.map_err(str::to_string), "{text:?}");
        }
        let err = parse("[1,2e]").unwrap_err();
        assert_eq!(err, "bad number \"2e\" at byte 3");
    }

    #[test]
    fn string_corpus_pins_acceptance_and_error_texts() {
        for (text, want) in [
            (r#""\u0041\u00e9""#, Ok("Aé")),
            (r#""\uD83D\uDE00""#, Ok("😀")),
            ("\"tab\\tok\"", Ok("tab\tok")),
            ("\"\u{7f}\"", Ok("\u{7f}")),
            (r#""\u+041""#, Err("bad \\u escape")),
            (r#""\u004""#, Err("bad \\u escape")),
            (r#""\u00""#, Err("truncated \\u escape")),
            (
                "\"a\u{1}b\"",
                Err("unescaped control character U+0001 at byte 2"),
            ),
            (
                "\"\u{0}\"",
                Err("unescaped control character U+0000 at byte 1"),
            ),
            (
                "\"tab\tno\"",
                Err("unescaped control character U+0009 at byte 4"),
            ),
            (
                "\"line\n\"",
                Err("unescaped control character U+000A at byte 5"),
            ),
        ] {
            let got = parse(text).map(|v| v.as_str().unwrap().to_string());
            assert_eq!(
                got,
                want.map(str::to_string).map_err(str::to_string),
                "{text:?}"
            );
        }
    }

    #[test]
    fn strings_escape_and_copy_runs() {
        let s = "plain é \"q\" back\\slash \u{1}\u{1f} tab\t😀 end";
        let line = Value::Str(s.to_string()).to_line();
        assert_eq!(
            line,
            "\"plain é \\\"q\\\" back\\\\slash \\u0001\\u001f tab\\t😀 end\""
        );
        assert_eq!(parse(&line).unwrap().as_str(), Some(s));
        // A megabyte string: linear parsing takes milliseconds even here.
        let long = "x".repeat(1 << 20) + "\\n" + &"é".repeat(1 << 18);
        let v = parse(&format!("\"{long}\"")).unwrap();
        assert_eq!(v.as_str().map(str::len), Some((1 << 20) + 1 + (2 << 18)));
    }

    #[test]
    fn nested_arrays_and_objects_keep_their_elements() {
        let line = r#"{"a":[[1,2],[],[3,[4,{"b":[5]}]]],"c":{},"d":[{"e":6},{"f":7}]}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.to_line(), line);
    }
}
