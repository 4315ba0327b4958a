//! Derive macros for the serde shim.
//!
//! The container has no registry access, so `syn`/`quote` are not
//! available; the type definition is parsed directly from the
//! `proc_macro` token stream. Supported shapes cover everything this
//! workspace derives on:
//!
//! * named-field structs, tuple structs (newtypes serialize as their
//!   inner value, like real serde), unit structs;
//! * enums with unit, tuple, and struct variants (externally tagged);
//! * simple generic parameters without bounds (`Dag<N, E>`);
//! * `#[serde(transparent)]` on containers, `#[serde(default)]` and
//!   `#[serde(with = "module")]` on named fields;
//! * `#[serde(deny_unknown_fields)]` on containers: a named struct, or
//!   each struct-like variant of an enum, rejects a map key that names
//!   no field, with an error naming the key and the type.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    default: bool,
    with: Option<String>,
}

#[derive(Debug)]
enum VariantBody {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    body: VariantBody,
}

#[derive(Debug)]
enum Body {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Input {
    name: String,
    params: Vec<String>,
    lifetimes: Vec<String>,
    body: Body,
    transparent: bool,
    deny_unknown_fields: bool,
}

/// Serde attributes found on one item (container, field, or variant).
#[derive(Debug, Default)]
struct SerdeAttrs {
    transparent: bool,
    deny_unknown_fields: bool,
    default: bool,
    with: Option<String>,
}

fn parse_serde_attr_group(group: &proc_macro::Group, attrs: &mut SerdeAttrs) {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            TokenTree::Ident(id) => {
                let word = id.to_string();
                match word.as_str() {
                    "transparent" => attrs.transparent = true,
                    "deny_unknown_fields" => attrs.deny_unknown_fields = true,
                    "default" => attrs.default = true,
                    "with" => {
                        // with = "path"
                        i += 1; // '='
                        i += 1; // literal
                        if let Some(TokenTree::Literal(lit)) = toks.get(i) {
                            let s = lit.to_string();
                            attrs.with = Some(s.trim_matches('"').to_string());
                        } else {
                            panic!("serde shim derive: malformed `with` attribute");
                        }
                    }
                    other => panic!(
                        "serde shim derive: unsupported serde attribute `{other}` \
                         (supported: transparent, deny_unknown_fields, default, with)"
                    ),
                }
            }
            TokenTree::Punct(_) => {}
            other => panic!("serde shim derive: unexpected token in serde attribute: {other}"),
        }
        i += 1;
    }
}

/// Consumes leading `#[...]` attributes starting at `*i`, collecting
/// serde attributes and skipping everything else (docs, derives, ...).
fn skip_attrs(toks: &[TokenTree], i: &mut usize) -> SerdeAttrs {
    let mut attrs = SerdeAttrs::default();
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1;
                let Some(TokenTree::Group(g)) = toks.get(*i) else {
                    panic!("serde shim derive: `#` not followed by attribute group");
                };
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if let Some(TokenTree::Ident(id)) = inner.first() {
                    if id.to_string() == "serde" {
                        if let Some(TokenTree::Group(sg)) = inner.get(1) {
                            parse_serde_attr_group(sg, &mut attrs);
                        }
                    }
                }
                *i += 1;
            }
            _ => return attrs,
        }
    }
}

/// Skips a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Parses `<...>` generics, returning lifetime and type parameter names.
fn parse_generics(toks: &[TokenTree], i: &mut usize) -> (Vec<String>, Vec<String>) {
    let mut lifetimes = Vec::new();
    let mut params = Vec::new();
    let Some(TokenTree::Punct(p)) = toks.get(*i) else {
        return (lifetimes, params);
    };
    if p.as_char() != '<' {
        return (lifetimes, params);
    }
    *i += 1;
    let mut depth = 1usize;
    let mut expecting_param = true;
    let mut pending_lifetime = false;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    return (lifetimes, params);
                }
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => expecting_param = true,
            TokenTree::Punct(p) if p.as_char() == '\'' && depth == 1 && expecting_param => {
                pending_lifetime = true;
            }
            TokenTree::Punct(p) if p.as_char() == ':' && depth == 1 => {
                panic!(
                    "serde shim derive: generic parameter bounds in the type \
                     definition are not supported; move them to a where clause-free \
                     inherent impl"
                );
            }
            TokenTree::Ident(id) if depth == 1 && expecting_param => {
                if pending_lifetime {
                    lifetimes.push(format!("'{id}"));
                    pending_lifetime = false;
                } else {
                    params.push(id.to_string());
                }
                expecting_param = false;
            }
            _ => {}
        }
        *i += 1;
    }
    panic!("serde shim derive: unterminated generics");
}

/// Parses named fields from the tokens inside a brace group.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < toks.len() {
        let attrs = skip_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_vis(&toks, &mut i);
        let Some(TokenTree::Ident(id)) = toks.get(i) else {
            panic!(
                "serde shim derive: expected field name, got {:?}",
                toks.get(i)
            );
        };
        let name = id.to_string();
        i += 1;
        // ':'
        i += 1;
        // Skip the type: tokens until a top-level ','.
        let mut depth = 0usize;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth = depth.saturating_sub(1),
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field {
            name,
            default: attrs.default,
            with: attrs.with,
        });
    }
    fields
}

/// Counts tuple fields inside a paren group (top-level commas + 1).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut depth = 0usize;
    let mut count = 1;
    let mut trailing_comma = false;
    for t in &toks {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth = depth.saturating_sub(1),
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                trailing_comma = true;
            }
            _ => trailing_comma = false,
        }
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        let _attrs = skip_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let Some(TokenTree::Ident(id)) = toks.get(i) else {
            panic!(
                "serde shim derive: expected variant name, got {:?}",
                toks.get(i)
            );
        };
        let name = id.to_string();
        i += 1;
        let body = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                i += 1;
                VariantBody::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                i += 1;
                VariantBody::Named(fields)
            }
            _ => VariantBody::Unit,
        };
        // Skip an optional discriminant `= expr` and the trailing comma.
        let mut depth = 0usize;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth = depth.saturating_sub(1),
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        variants.push(Variant { name, body });
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let container_attrs = skip_attrs(&toks, &mut i);
    skip_vis(&toks, &mut i);
    let Some(TokenTree::Ident(kw)) = toks.get(i) else {
        panic!("serde shim derive: expected `struct` or `enum`");
    };
    let kw = kw.to_string();
    i += 1;
    let Some(TokenTree::Ident(name)) = toks.get(i) else {
        panic!("serde shim derive: expected type name");
    };
    let name = name.to_string();
    i += 1;
    let (lifetimes, params) = parse_generics(&toks, &mut i);
    if let Some(TokenTree::Ident(id)) = toks.get(i) {
        if id.to_string() == "where" {
            panic!("serde shim derive: where clauses are not supported");
        }
    }
    let body = match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Unit,
            other => panic!("serde shim derive: unexpected struct body: {other:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: unexpected enum body: {other:?}"),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    };
    Input {
        name,
        params,
        lifetimes,
        body,
        transparent: container_attrs.transparent,
        deny_unknown_fields: container_attrs.deny_unknown_fields,
    }
}

/// `<'a, N, E>` as used after the type name, or the empty string.
fn type_args(input: &Input) -> String {
    if input.params.is_empty() && input.lifetimes.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = input.lifetimes.clone();
    parts.extend(input.params.iter().cloned());
    format!("<{}>", parts.join(", "))
}

/// Impl-generics with the given bound attached to every type parameter.
fn impl_generics(input: &Input, extra_lifetime: Option<&str>, bound: &str) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(lt) = extra_lifetime {
        parts.push(lt.to_string());
    }
    parts.extend(input.lifetimes.iter().cloned());
    for p in &input.params {
        parts.push(format!("{p}: {bound}"));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("<{}>", parts.join(", "))
    }
}

const SER_ERR: &str = "<__S::Error as ::serde::ser::Error>::custom";
const DE_ERR: &str = "<__D::Error as ::serde::de::Error>::custom";

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let generics = impl_generics(input, None, "::serde::Serialize");
    let args = type_args(input);
    let mut body = String::new();
    match &input.body {
        Body::Named(fields) => {
            if input.transparent {
                assert!(
                    fields.len() == 1,
                    "serde shim derive: #[serde(transparent)] requires exactly one field, \
                     `{}` has {}",
                    name,
                    fields.len()
                );
                let f = &fields[0].name;
                body.push_str(&format!("::serde::Serialize::serialize(&self.{f}, __s)"));
            } else {
                body.push_str(
                    "let mut __m: ::std::vec::Vec<(::std::string::String, \
                     ::serde::export::Value)> = ::std::vec::Vec::new();\n",
                );
                for f in fields {
                    let fname = &f.name;
                    let expr = match &f.with {
                        Some(path) => format!(
                            "match {path}::serialize(&self.{fname}, \
                             ::serde::export::ValueSerializer) {{ \
                             ::std::result::Result::Ok(v) => v, \
                             ::std::result::Result::Err(e) => \
                             return ::std::result::Result::Err({SER_ERR}(e)) }}"
                        ),
                        None => format!(
                            "match ::serde::export::to_value(&self.{fname}) {{ \
                             ::std::result::Result::Ok(v) => v, \
                             ::std::result::Result::Err(e) => \
                             return ::std::result::Result::Err({SER_ERR}(e)) }}"
                        ),
                    };
                    body.push_str(&format!(
                        "__m.push((::std::string::String::from(\"{fname}\"), {expr}));\n"
                    ));
                }
                body.push_str("__s.serialize_value(::serde::export::Value::Map(__m))");
            }
        }
        Body::Tuple(1) => {
            body.push_str("::serde::Serialize::serialize(&self.0, __s)");
        }
        Body::Tuple(n) => {
            body.push_str(
                "let mut __items: ::std::vec::Vec<::serde::export::Value> = \
                 ::std::vec::Vec::new();\n",
            );
            for idx in 0..*n {
                body.push_str(&format!(
                    "__items.push(match ::serde::export::to_value(&self.{idx}) {{ \
                     ::std::result::Result::Ok(v) => v, \
                     ::std::result::Result::Err(e) => \
                     return ::std::result::Result::Err({SER_ERR}(e)) }});\n"
                ));
            }
            body.push_str("__s.serialize_value(::serde::export::Value::Seq(__items))");
        }
        Body::Unit => {
            body.push_str(&format!(
                "__s.serialize_value(::serde::export::Value::Str(\
                 ::std::string::String::from(\"{name}\")))"
            ));
        }
        Body::Enum(variants) => {
            body.push_str("match self {\n");
            for v in variants {
                let vname = &v.name;
                match &v.body {
                    VariantBody::Unit => body.push_str(&format!(
                        "{name}::{vname} => __s.serialize_value(\
                         ::serde::export::Value::Str(\
                         ::std::string::String::from(\"{vname}\"))),\n"
                    )),
                    VariantBody::Tuple(1) => body.push_str(&format!(
                        "{name}::{vname}(__f0) => {{ \
                         let __inner = match ::serde::export::to_value(__f0) {{ \
                         ::std::result::Result::Ok(v) => v, \
                         ::std::result::Result::Err(e) => \
                         return ::std::result::Result::Err({SER_ERR}(e)) }}; \
                         __s.serialize_value(::serde::export::Value::Map(vec![(\
                         ::std::string::String::from(\"{vname}\"), __inner)])) }}\n"
                    )),
                    VariantBody::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let mut arm = format!(
                            "{name}::{vname}({}) => {{ \
                             let mut __items: ::std::vec::Vec<::serde::export::Value> \
                             = ::std::vec::Vec::new();\n",
                            binders.join(", ")
                        );
                        for b in &binders {
                            arm.push_str(&format!(
                                "__items.push(match ::serde::export::to_value({b}) {{ \
                                 ::std::result::Result::Ok(v) => v, \
                                 ::std::result::Result::Err(e) => \
                                 return ::std::result::Result::Err({SER_ERR}(e)) }});\n"
                            ));
                        }
                        arm.push_str(&format!(
                            "__s.serialize_value(::serde::export::Value::Map(vec![(\
                             ::std::string::String::from(\"{vname}\"), \
                             ::serde::export::Value::Seq(__items))])) }}\n"
                        ));
                        body.push_str(&arm);
                    }
                    VariantBody::Named(fields) => {
                        let binders: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let mut arm = format!(
                            "{name}::{vname} {{ {} }} => {{ \
                             let mut __m: ::std::vec::Vec<(::std::string::String, \
                             ::serde::export::Value)> = ::std::vec::Vec::new();\n",
                            binders.join(", ")
                        );
                        for f in fields {
                            let fname = &f.name;
                            arm.push_str(&format!(
                                "__m.push((::std::string::String::from(\"{fname}\"), \
                                 match ::serde::export::to_value({fname}) {{ \
                                 ::std::result::Result::Ok(v) => v, \
                                 ::std::result::Result::Err(e) => \
                                 return ::std::result::Result::Err({SER_ERR}(e)) }}));\n"
                            ));
                        }
                        arm.push_str(&format!(
                            "__s.serialize_value(::serde::export::Value::Map(vec![(\
                             ::std::string::String::from(\"{vname}\"), \
                             ::serde::export::Value::Map(__m))])) }}\n"
                        ));
                        body.push_str(&arm);
                    }
                }
            }
            body.push_str("}\n");
        }
    }
    format!(
        "#[automatically_derived]\n\
         impl{generics} ::serde::Serialize for {name}{args} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
         -> ::std::result::Result<__S::Ok, __S::Error> {{\n{body}\n}}\n}}\n"
    )
}

/// Statements rejecting any key of the map `__m` that names none of
/// `fields` (the `deny_unknown_fields` check).
fn gen_unknown_field_check(ty_label: &str, fields: &[Field]) -> String {
    let known: Vec<String> = fields.iter().map(|f| format!("\"{}\"", f.name)).collect();
    format!(
        "let __known: &[&str] = &[{}]; \
         for (__k, _) in __m.iter() {{ \
         if !__known.contains(&__k.as_str()) {{ \
         return ::std::result::Result::Err({DE_ERR}(\
         ::serde::export::unknown_field(\"{ty_label}\", __k, __known))); }} }}\n",
        known.join(", ")
    )
}

fn gen_named_field_reads(ty_label: &str, fields: &[Field]) -> String {
    let mut out = String::new();
    for f in fields {
        let fname = &f.name;
        let found = match &f.with {
            Some(path) => format!(
                "match {path}::deserialize(::serde::export::ValueDeserializer::new(\
                 __kv.1.clone())) {{ \
                 ::std::result::Result::Ok(v) => v, \
                 ::std::result::Result::Err(e) => \
                 return ::std::result::Result::Err({DE_ERR}(e)) }}"
            ),
            None => format!(
                "match ::serde::export::from_value(__kv.1.clone()) {{ \
                 ::std::result::Result::Ok(v) => v, \
                 ::std::result::Result::Err(e) => \
                 return ::std::result::Result::Err({DE_ERR}(e)) }}"
            ),
        };
        let missing = if f.default {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "return ::std::result::Result::Err({DE_ERR}(\
                 ::serde::export::missing_field(\"{ty_label}\", \"{fname}\")))"
            )
        };
        out.push_str(&format!(
            "{fname}: match __m.iter().find(|__kv| __kv.0 == \"{fname}\") {{ \
             ::std::option::Option::Some(__kv) => {found}, \
             ::std::option::Option::None => {missing} }},\n"
        ));
    }
    out
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let generics = impl_generics(input, Some("'de"), "::serde::de::DeserializeOwned");
    let args = type_args(input);
    let expect_map = format!(
        "let __m = match __v {{ ::serde::export::Value::Map(m) => m, \
         other => return ::std::result::Result::Err({DE_ERR}(\
         ::std::format!(\"expected map for {name}, got {{}}\", other.kind()))) }};\n"
    );
    let mut body = String::from("let __v = __d.into_value()?;\n");
    match &input.body {
        Body::Named(fields) => {
            if input.transparent {
                assert!(
                    fields.len() == 1,
                    "serde shim derive: #[serde(transparent)] requires exactly one field, \
                     `{}` has {}",
                    name,
                    fields.len()
                );
                let f = &fields[0].name;
                body = format!(
                    "::std::result::Result::Ok({name} {{ {f}: \
                     ::serde::Deserialize::deserialize(__d)? }})"
                );
            } else {
                body.push_str(&expect_map);
                if input.deny_unknown_fields {
                    body.push_str(&gen_unknown_field_check(name, fields));
                }
                body.push_str(&format!(
                    "::std::result::Result::Ok({name} {{\n{}\n}})",
                    gen_named_field_reads(name, fields)
                ));
            }
        }
        Body::Tuple(1) => {
            body = format!(
                "::std::result::Result::Ok({name}(\
                 ::serde::Deserialize::deserialize(__d)?))"
            );
        }
        Body::Tuple(n) => {
            body.push_str(&format!(
                "let __items = match __v {{ ::serde::export::Value::Seq(s) if s.len() == {n} \
                 => s, other => return ::std::result::Result::Err({DE_ERR}(\
                 ::std::format!(\"expected sequence of {n} for {name}, got {{}}\", \
                 other.kind()))) }};\n\
                 let mut __it = __items.into_iter();\n"
            ));
            let reads: Vec<String> = (0..*n)
                .map(|_| {
                    format!(
                        "match ::serde::export::from_value(__it.next().unwrap()) {{ \
                         ::std::result::Result::Ok(v) => v, \
                         ::std::result::Result::Err(e) => \
                         return ::std::result::Result::Err({DE_ERR}(e)) }}"
                    )
                })
                .collect();
            body.push_str(&format!(
                "::std::result::Result::Ok({name}({}))",
                reads.join(", ")
            ));
        }
        Body::Unit => {
            body.push_str(&format!(
                "match __v {{ \
                 ::serde::export::Value::Str(s) if s == \"{name}\" => \
                 ::std::result::Result::Ok({name}), \
                 ::serde::export::Value::Null => ::std::result::Result::Ok({name}), \
                 other => ::std::result::Result::Err({DE_ERR}(\
                 ::std::format!(\"expected unit struct {name}, got {{}}\", other.kind()))) }}"
            ));
        }
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.body {
                    VariantBody::Unit => {
                        unit_arms.push_str(&format!(
                            "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                        ));
                        // Also accept the {"V": null} form.
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                        ));
                    }
                    VariantBody::Tuple(1) => {
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => match ::serde::export::from_value(\
                             __payload.clone()) {{ \
                             ::std::result::Result::Ok(v) => \
                             ::std::result::Result::Ok({name}::{vname}(v)), \
                             ::std::result::Result::Err(e) => \
                             ::std::result::Result::Err({DE_ERR}(e)) }},\n"
                        ));
                    }
                    VariantBody::Tuple(n) => {
                        let reads: Vec<String> = (0..*n)
                            .map(|_| {
                                format!(
                                    "match ::serde::export::from_value(\
                                     __it.next().unwrap()) {{ \
                                     ::std::result::Result::Ok(v) => v, \
                                     ::std::result::Result::Err(e) => \
                                     return ::std::result::Result::Err({DE_ERR}(e)) }}"
                                )
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{ \
                             let __items = match __payload {{ \
                             ::serde::export::Value::Seq(s) if s.len() == {n} => s.clone(), \
                             other => return ::std::result::Result::Err({DE_ERR}(\
                             ::std::format!(\"expected sequence of {n} for variant \
                             {vname}, got {{}}\", other.kind()))) }}; \
                             let mut __it = __items.into_iter(); \
                             ::std::result::Result::Ok({name}::{vname}({})) }},\n",
                            reads.join(", ")
                        ));
                    }
                    VariantBody::Named(fields) => {
                        let check = if input.deny_unknown_fields {
                            gen_unknown_field_check(&format!("{name}::{vname}"), fields)
                        } else {
                            String::new()
                        };
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{ \
                             let __m = match __payload {{ \
                             ::serde::export::Value::Map(m) => m.clone(), \
                             other => return ::std::result::Result::Err({DE_ERR}(\
                             ::std::format!(\"expected map for variant {vname}, \
                             got {{}}\", other.kind()))) }}; \
                             {check}\
                             ::std::result::Result::Ok({name}::{vname} {{\n{}\n}}) }},\n",
                            gen_named_field_reads(vname, fields)
                        ));
                    }
                }
            }
            body.push_str(&format!(
                "match &__v {{\n\
                 ::serde::export::Value::Str(__s) => match __s.as_str() {{\n\
                 {unit_arms}\
                 other => ::std::result::Result::Err({DE_ERR}(\
                 ::std::format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                 }},\n\
                 ::serde::export::Value::Map(__entries) if __entries.len() == 1 => {{\n\
                 let (__tag, __payload) = &__entries[0];\n\
                 match __tag.as_str() {{\n\
                 {tagged_arms}\
                 other => ::std::result::Result::Err({DE_ERR}(\
                 ::std::format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                 }}\n\
                 }},\n\
                 other => ::std::result::Result::Err({DE_ERR}(\
                 ::std::format!(\"expected enum {name}, got {{}}\", other.kind()))),\n\
                 }}"
            ));
        }
    }
    format!(
        "#[automatically_derived]\n\
         impl{generics} ::serde::Deserialize<'de> for {name}{args} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
         -> ::std::result::Result<Self, __D::Error> {{\n#[allow(unused_variables)]\n{body}\n}}\n}}\n"
    )
}

/// Derives `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("serde shim derive: generated invalid Serialize impl")
}

/// Derives `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("serde shim derive: generated invalid Deserialize impl")
}
