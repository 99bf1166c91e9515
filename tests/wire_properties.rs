//! Property-based tests of the two wire parsers that read untrusted
//! bytes: the length-prefixed `read_frame` (the `clre-exec` codec, which
//! `clre-serve` re-exports) and the server's `submit` line parser.
//! Arbitrary bytes, truncated valid frames and mangled request lines must
//! each yield `Ok`, `Ok(None)` or a typed error — never a panic.

use std::io::{self, Cursor};

use clrearly::core::methodology::StageBudget;
use clrearly::core::CampaignPlan;
use clrearly::serve::wire::{read_frame, write_frame, AppSpec, SubmitRequest};
use proptest::prelude::*;

/// Reads frames until a clean end of stream or an error, bounded by the
/// input length (every successful frame consumes at least its prefix).
fn drain(bytes: &[u8]) -> Result<Vec<String>, io::ErrorKind> {
    let mut cursor = Cursor::new(bytes.to_vec());
    let mut frames = Vec::new();
    for _ in 0..=bytes.len() / 4 {
        match read_frame(&mut cursor) {
            Ok(Some(line)) => frames.push(line),
            Ok(None) => return Ok(frames),
            Err(e) => return Err(e.kind()),
        }
    }
    panic!("read_frame made no progress on {} bytes", bytes.len());
}

/// Printable-ASCII strings of up to `max` characters.
fn arb_printable(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

/// One `submit` token: a known key (or junk) with a value drawn from the
/// characters the app, plan and scenario grammars use, so the parser is
/// driven past the key dispatch into its sub-parsers.
fn arb_submit_token() -> impl Strategy<Value = String> {
    const KEYS: [&str; 9] = [
        "tenant=",
        "app=",
        "population=",
        "generations=",
        "seed=",
        "plan=",
        "scenario=",
        "junk=",
        "",
    ];
    const ALPHABET: &[u8] = b"0123456789:|;,-=@abcdefghilmnoprstuyz";
    (
        0usize..KEYS.len(),
        prop::collection::vec(0usize..ALPHABET.len(), 0..24),
    )
        .prop_map(|(key, picks)| {
            let value: String = picks.into_iter().map(|i| char::from(ALPHABET[i])).collect();
            format!("{}{value}", KEYS[key])
        })
}

/// A well-formed request whose encoding the truncation property cuts.
fn valid_request(seed: u64) -> SubmitRequest {
    let plans = [
        CampaignPlan::fc(),
        CampaignPlan::proposed(),
        CampaignPlan::agnostic(),
        CampaignPlan::proposed().islands(3),
    ];
    SubmitRequest {
        tenant: format!("tenant-{seed}"),
        app: AppSpec::Synthetic {
            tasks: 12,
            seed: seed % 97,
        },
        budget: StageBudget::new(8, 10).with_seed(seed),
        plan: plans[(seed % 4) as usize].clone(),
        scenario: clrearly::core::Scenario::Transient,
    }
}

/// A parsed request must re-encode to a line that parses back to it.
fn assert_roundtrips(request: &SubmitRequest) {
    let again = SubmitRequest::parse(&request.encode()).expect("re-encoded request parses");
    assert_eq!(&again, request, "parse . encode is not the identity");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Entirely arbitrary bytes: most length prefixes exceed the cap,
    /// the rest run into short or non-UTF-8 bodies. The reader never
    /// panics, fails only with `InvalidData`, and what it accepts
    /// re-encodes to the bytes it consumed, leaving less than a prefix.
    #[test]
    fn arbitrary_bytes_never_panic_the_framer(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        match drain(&bytes) {
            Ok(frames) => {
                let mut encoded = Vec::new();
                for line in &frames {
                    write_frame(&mut encoded, line).expect("frame encodes");
                }
                prop_assert!(bytes.starts_with(&encoded));
                prop_assert!(bytes.len() - encoded.len() < 4, "a whole prefix was left unread");
            }
            Err(kind) => prop_assert_eq!(kind, io::ErrorKind::InvalidData),
        }
    }

    /// A small length prefix over an arbitrary body: a full UTF-8 body is
    /// one frame, a short body or invalid UTF-8 is `InvalidData`.
    #[test]
    fn short_prefixed_frames_return_a_defined_outcome(
        len in 0u32..48,
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = len.to_be_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let len = len as usize;
        let outcome = read_frame(&mut Cursor::new(bytes));
        match (body.len() >= len, std::str::from_utf8(&body[..len.min(body.len())])) {
            (true, Ok(text)) => {
                prop_assert_eq!(outcome.ok().flatten().as_deref(), Some(text));
            }
            _ => prop_assert_eq!(
                outcome.err().map(|e| e.kind()),
                Some(io::ErrorKind::InvalidData)
            ),
        }
    }

    /// A valid frame cut anywhere: inside the prefix is a clean end of
    /// stream, inside the body a typed `InvalidData`, at the end the
    /// original line.
    #[test]
    fn truncated_valid_frames_degrade_to_eof_or_typed_error(
        line in arb_printable(80),
        frac in 0.0..1.0f64,
    ) {
        let mut frame = Vec::new();
        write_frame(&mut frame, &line).expect("frame encodes");
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((frame.len() + 1) as f64 * frac) as usize;
        let cut = cut.min(frame.len());
        let outcome = read_frame(&mut Cursor::new(frame[..cut].to_vec()));
        if cut < 4 {
            prop_assert!(matches!(outcome, Ok(None)), "cut {} of prefix", cut);
        } else if cut < frame.len() {
            prop_assert_eq!(
                outcome.err().map(|e| e.kind()),
                Some(io::ErrorKind::InvalidData)
            );
        } else {
            prop_assert_eq!(outcome.ok().flatten(), Some(line));
        }
    }

    /// Arbitrary text (lossily decoded bytes, so any Unicode): the
    /// `submit` parser returns a request or an error message.
    #[test]
    fn arbitrary_lines_never_panic_the_submit_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        for line in [text.to_string(), format!("submit {text}")] {
            if let Ok(request) = SubmitRequest::parse(&line) {
                assert_roundtrips(&request);
            }
        }
    }

    /// Grammar-shaped junk: known keys with values from the sub-parsers'
    /// alphabets reach the app, plan and scenario parsers.
    #[test]
    fn grammar_shaped_submit_lines_parse_or_err(
        tokens in prop::collection::vec(arb_submit_token(), 0..8),
    ) {
        let line = format!("submit {}", tokens.join(" "));
        if let Ok(request) = SubmitRequest::parse(&line) {
            assert_roundtrips(&request);
        }
    }

    /// A valid request line cut at any character, or with one character
    /// replaced: a shorter valid request or an error, never a panic.
    #[test]
    fn damaged_submit_lines_parse_or_err(
        seed in 0u64..10_000,
        frac in 0.0..1.0f64,
        replacement in 32u8..127,
    ) {
        let line = valid_request(seed).encode();
        prop_assert_eq!(SubmitRequest::parse(&line), Ok(valid_request(seed)));
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at = ((line.len() as f64) * frac) as usize;
        let mut replaced = line.clone().into_bytes();
        replaced[at] = replacement;
        let replaced = String::from_utf8(replaced).expect("ASCII line");
        for damaged in [&line[..at], replaced.as_str()] {
            if let Ok(request) = SubmitRequest::parse(damaged) {
                assert_roundtrips(&request);
            }
        }
    }
}
