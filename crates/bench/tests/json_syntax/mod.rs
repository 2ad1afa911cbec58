//! A minimal JSON syntax checker — enough to prove the emitted file is
//! well-formed without pulling a parser dependency into the workspace.
//! Shared by the `stage_cli` test and the `topo_bench::json` unit tests.

pub fn parse_json(bytes: &[u8]) -> Result<(), String> {
    let text: Vec<char> = std::str::from_utf8(bytes).map_err(|e| e.to_string())?.chars().collect();
    let mut pos = 0usize;
    parse_value(&text, &mut pos)?;
    skip_ws(&text, &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at char {pos}"));
    }
    Ok(())
}

fn skip_ws(t: &[char], pos: &mut usize) {
    while *pos < t.len() && t[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(t: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    if *pos < t.len() && t[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {c:?} at char {pos}"))
    }
}

fn parse_value(t: &[char], pos: &mut usize) -> Result<(), String> {
    skip_ws(t, pos);
    match t.get(*pos) {
        Some('{') => {
            *pos += 1;
            skip_ws(t, pos);
            if t.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(t, pos);
                parse_string(t, pos)?;
                skip_ws(t, pos);
                expect(t, pos, ':')?;
                parse_value(t, pos)?;
                skip_ws(t, pos);
                match t.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at char {pos}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            skip_ws(t, pos);
            if t.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                parse_value(t, pos)?;
                skip_ws(t, pos);
                match t.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at char {pos}")),
                }
            }
        }
        Some('"') => parse_string(t, pos),
        Some(c) if c.is_ascii_digit() || *c == '-' => {
            *pos += 1;
            while t.get(*pos).is_some_and(|c| "0123456789+-.eE".contains(*c)) {
                *pos += 1;
            }
            Ok(())
        }
        _ => {
            for lit in ["true", "false", "null"] {
                let chars: Vec<char> = lit.chars().collect();
                if t[*pos..].starts_with(&chars) {
                    *pos += chars.len();
                    return Ok(());
                }
            }
            Err(format!("unexpected value at char {pos}"))
        }
    }
}

fn parse_string(t: &[char], pos: &mut usize) -> Result<(), String> {
    expect(t, pos, '"')?;
    while let Some(&c) = t.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(()),
            '\\' => *pos += 1,
            c if (c as u32) < 0x20 => return Err(format!("raw control character at char {pos}")),
            _ => {}
        }
    }
    Err("unterminated string".to_string())
}
